"""Host-speed calibration: short timed slices of a fixed loop inside a pass.

The reference host is a shared 2-vCPU VM whose speed drifts: for
seconds to minutes the same code runs up to 2x slower, far more than
any regression bound could absorb.  Both vCPUs slow down together and
CPU time slows with wall time, so neither pinning nor CPU time helps,
and a loop timed once before and once after a pass misses bursts that
fall in between (it read the host up to 40 % slower than the pass ran).

A :class:`Slicer` therefore interrupts the pass every :data:`PERIOD_S`
of wall time (``SIGALRM``) and times one short slice of a fixed
pure-Python loop on the same CPU, at the moment the workload is
running.  Each slice gives the host's speed relative to the reference
host, ``REFERENCE_SLICE_S / slice time``, for the interval up to the
next slice.  :meth:`Slicer.ref_clock` integrates these speeds, so a
span timed with it is in reference-host seconds however the host's
speed moved during the span; the slices' own time is left out.

The loop is the simulator's shape in miniature -- a heap of timed
events, slotted objects, dict counters -- so host contention slows it
roughly as it slows the simulator.  It lives in the benchmark, not the
program, so a change to the program moves the measured time and leaves
the calibration alone.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

#: Loop rounds per slice, and the slice's time on the reference host
#: when quiet (0.65 us a round, Python 3.11).
ROUNDS = 1500
REFERENCE_SLICE_S = 0.65e-6 * ROUNDS
#: Wall time between the starts of two slices.
PERIOD_S = 0.025


class _Event:
    __slots__ = ("time", "count", "tag")

    def __init__(self, time_: int, tag: int) -> None:
        self.time = time_
        self.count = 0
        self.tag = tag


def _loop(rounds: int) -> int:
    queue = []
    counters: dict = {}
    seq = 0
    for i in range(64):
        heapq.heappush(queue, (i, seq, _Event(i, i % 8)))
        seq += 1
    pop, push = heapq.heappop, heapq.heappush
    for _ in range(rounds):
        now, _seq, event = pop(queue)
        event.count += 1
        counters[event.tag] = counters.get(event.tag, 0) + 1
        event.time = now + 1 + (event.count * 7 + event.tag) % 13
        push(queue, (event.time, seq, event))
        seq += 1
    return sum(counters.values())


class Slicer:
    """Times a calibration slice every :data:`PERIOD_S` between
    :meth:`start` and :meth:`stop`, and keeps a reference-host clock."""

    def __init__(self) -> None:
        #: Each slice's duration in seconds.
        self.slices: List[float] = []
        #: Wall seconds spent in slices.
        self.spent_s = 0.0
        #: Reference seconds from the origin to the end of the last slice,
        #: that slice's end and the speed it measured.
        self._ref = 0.0
        self._mark = 0.0
        self._speed = 1.0

    def _slice(self) -> float:
        """Time one slice; return when it started."""
        started = time.monotonic()
        if _loop(ROUNDS) != ROUNDS:
            raise RuntimeError("calibration loop miscounted")
        self._mark = time.monotonic()
        took = self._mark - started
        self._speed = REFERENCE_SLICE_S / took
        self.slices.append(took)
        self.spent_s += took
        return started

    def _on_alarm(self, _signum, _frame) -> None:
        speed, mark = self._speed, self._mark
        started = self._slice()
        self._ref += (started - mark) * speed

    def start(self, origin: float) -> None:
        """Start slicing; :meth:`ref_clock` counts from ``origin``, a
        ``time.monotonic()`` reading taken earlier, which is priced at
        the speed of a first slice timed now."""
        started = self._slice()
        self._ref = (started - origin) * self._speed
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_clock(self) -> float:
        """Reference-host seconds since the origin, slices left out; the
        time after a slice runs at the speed that slice measured."""
        while True:
            count = len(self.slices)
            ref, mark, speed = self._ref, self._mark, self._speed
            now = time.monotonic()
            if count == len(self.slices):  # no slice ran in between
                return ref + (now - mark) * speed

    def factor(self) -> float:
        """Mean speed over the slices (1.0 without slices): the scale from
        measured seconds of the whole pass to reference-host seconds."""
        if not self.slices:
            return 1.0
        return sum(REFERENCE_SLICE_S / s for s in self.slices) / len(self.slices)
