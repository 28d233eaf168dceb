"""Traffic-class share policies for a memory channel.

Two policies from the paper's infrastructure:

* **FR-FCFS** (first-ready, first-come-first-served) -- the standard USIMM
  open-page scheduler: among queued requests, prefer one that hits an open
  row buffer, otherwise take the oldest.  The scan is bounded by a window
  for simulation speed, as real schedulers bound their associative search.
  :class:`~repro.dram.channel.Channel` runs it inline in its service loop,
  within one traffic class's requests, as an indexed probe.

* **Bandwidth preallocation** (:class:`SharePolicy`) -- the cooperative
  Path ORAM sharing technique of Wang et al. [39] that Section IV adopts
  with a 50 % threshold: when secure (ORAM) and normal traffic share a
  channel, each traffic class is guaranteed its configured fraction of
  scheduling slots via deficit round-robin, so an ORAM burst cannot starve
  co-running applications (and vice versa).
"""

from __future__ import annotations

from repro.dram.commands import TrafficClass


class SharePolicy:
    """Deficit round-robin between the secure and the normal class.

    ``secure_share`` of the contended slots go to SECURE and the rest to
    NORMAL; the paper preallocates 50 % ([39]; Section IV).  Every
    fabric builder (the trace-replay system and the scenario service
    layer) builds its policy from its ``secure_share`` knob.  The channel
    asks only when both classes wait; otherwise it serves the class that
    waits, so the policy is work-conserving.
    """

    def __init__(self, secure_share: float) -> None:
        # The shares the weights form gave, ``s / (s + (1 - s))`` and
        # ``(1 - s) / (s + (1 - s))``: for ``s`` in (0, 1) the rounded
        # sum is exactly 1.0, so each is bit-identical to these.
        self._share = {TrafficClass.SECURE: secure_share,
                       TrafficClass.NORMAL: 1.0 - secure_share}
        self._credit = {TrafficClass.SECURE: 0.0, TrafficClass.NORMAL: 0.0}

    def pick_between(self, first: TrafficClass,
                     second: TrafficClass) -> TrafficClass:
        """The class to serve in the channel's contended slot, ``first``
        being the older head's class; allocates nothing.

        Each class earns its share and the winner pays one slot (ties go
        to ``first``); credits are clamped to [-2, 2].
        """
        credit = self._credit
        share = self._share
        a = credit[first] + share[first]
        if a > 2.0:
            a = 2.0
        b = credit[second] + share[second]
        if b > 2.0:
            b = 2.0
        credit[first] = a
        credit[second] = b
        if a >= b:  # tie -> first
            best = first
            a -= 1.0
        else:
            best = second
            a = b - 1.0
        credit[best] = a if a > -2.0 else -2.0
        return best


class SingleClassPolicy:
    """Degenerate share policy when only one traffic class uses a channel."""

    def pick_between(self, first: TrafficClass,
                     second: TrafficClass) -> TrafficClass:
        return first
