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

from typing import Dict, Optional

from repro.dram.commands import TrafficClass


class SharePolicy:
    """Deficit round-robin between traffic classes.

    ``weights`` maps each :class:`TrafficClass` to its guaranteed share;
    the paper uses 50/50 (``{SECURE: 1, NORMAL: 1}``).  Classes with no
    queued work donate their slot, so the policy is work-conserving.
    """

    def __init__(self, weights: Optional[Dict[TrafficClass, float]] = None) -> None:
        if weights is None:
            weights = {TrafficClass.SECURE: 1.0, TrafficClass.NORMAL: 1.0}
        if not weights or any(w <= 0 for w in weights.values()):
            raise ValueError("weights must be positive")
        self.weights = dict(weights)
        total = sum(self.weights.values())
        self._share = {cls: w / total for cls, w in self.weights.items()}
        self._credit: Dict[TrafficClass, float] = {
            cls: 0.0 for cls in self.weights
        }
        self.served: Dict[TrafficClass, int] = {cls: 0 for cls in self.weights}

    @classmethod
    def preallocated(cls, secure_share: float) -> "SharePolicy":
        """Bandwidth preallocation for a channel that carries both secure
        and normal traffic ([39]; Section IV): ``secure_share`` of the
        contended slots go to SECURE, the rest to NORMAL.  Every fabric
        builder (the trace-replay system and the scenario service layer)
        derives its policy here from its ``secure_share`` knob."""
        return cls({
            TrafficClass.SECURE: secure_share,
            TrafficClass.NORMAL: 1.0 - secure_share,
        })

    def pick_between(self, first: TrafficClass,
                     second: TrafficClass) -> TrafficClass:
        """The class to serve in the channel's contended slot, ``first``
        being the older head's class; allocates nothing.

        Each configured class earns its share and the winner pays one
        slot (ties go to ``first``); credits are clamped to [-2, 2].  An
        unconfigured class contends for nothing: the configured one is
        served without touching a credit, so a class running alone does
        not bank debt (or surplus) against an absent one.
        """
        weights = self.weights
        if first not in weights:
            if second not in weights:
                return first
            self.served[second] += 1
            return second
        if second not in weights:
            self.served[first] += 1
            return first
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
        self.served[best] += 1
        return best


class SingleClassPolicy:
    """Degenerate share policy when only one traffic class uses a channel."""

    def pick_between(self, first: TrafficClass,
                     second: TrafficClass) -> TrafficClass:
        return first
