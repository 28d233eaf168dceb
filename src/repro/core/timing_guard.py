"""Fixed-rate request generation (the timing-channel guard).

Section III-B step (2): the on-chip secure engine emits a new Path ORAM
request exactly ``t`` CPU cycles after receiving the previous response --
a real request if the S-App has one queued, otherwise a dummy.  The
observable request stream on the serial link is therefore a deterministic
function of the response stream and leaks nothing about the application's
demand (Section III-G cites [44], [46]).
"""

from __future__ import annotations

from repro.sim.engine import cpu_cycles
from repro.sim.stats import StatSet


class RequestPacer:
    """Tracks when the next ORAM request may be emitted.

    The cadence is response-anchored: every response sets the next
    emission to ``response + t``.  The frontend emits one request per
    slot and never materializes missed ones.
    """

    def __init__(self, t_cycles: int = 50, name: str = "pacer") -> None:
        if t_cycles < 0:
            raise ValueError("t_cycles must be >= 0")
        self.t_ticks = cpu_cycles(t_cycles)
        self.stats = StatSet(name)
        #: Earliest tick the next request may leave the secure engine.
        self.next_allowed = 0

    def response_received(self, time: int) -> int:
        """Record a response; returns the next request's emission time."""
        self.next_allowed = time + self.t_ticks
        return self.next_allowed

    def emitted(self, real: bool) -> None:
        """Account one emitted request."""
        self.stats.counter("real" if real else "dummy").add()

    def retransmitted(self) -> None:
        """Account one retransmission riding a fixed-rate slot.

        A retransmitted secure-link frame replaces what would otherwise
        be a dummy emission, so it counts as neither a real nor a dummy
        request.
        """
        self.stats.counter("retransmit").add()
