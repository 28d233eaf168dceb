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

from typing import Dict, Optional, Sequence

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
        """:meth:`pick_class` of ``[first, second]``, allocating nothing:
        the channel's contended slot, ``first`` being the older head's
        class."""
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

    def pick_class(self, pending: Sequence[TrafficClass]) -> TrafficClass:
        """Choose which class to serve among classes with queued requests."""
        candidates = [cls for cls in pending if cls in self.weights]
        if not candidates:
            # Unconfigured classes fall through in arrival order.
            return pending[0]
        if len(candidates) == 1:
            # Work-conserving bypass: an uncontended slot costs no credit,
            # so a class running alone does not bank debt (or surplus)
            # against classes that were absent.
            self.served[candidates[0]] += 1
            return candidates[0]
        # Contended slot: every pending class earns its share, the winner
        # pays one slot.  Credits stay bounded by construction (shares sum
        # to <= 1 and the winner pays 1), but clamp anyway for safety.
        for cls in candidates:
            self._credit[cls] = min(self._credit[cls] + self._share[cls], 2.0)
        best = max(candidates, key=lambda cls: (self._credit[cls],
                                                -candidates.index(cls)))
        self._credit[best] = max(self._credit[best] - 1.0, -2.0)
        self.served[best] += 1
        return best

    def served_fraction(self, cls: TrafficClass) -> float:
        """Fraction of slots actually served to ``cls`` (for tests/analysis)."""
        total = sum(self.served.values())
        return self.served.get(cls, 0) / total if total else 0.0


class SingleClassPolicy:
    """Degenerate share policy when only one traffic class uses a channel."""

    def pick_between(self, first: TrafficClass,
                     second: TrafficClass) -> TrafficClass:
        return first

    def pick_class(self, pending: Sequence[TrafficClass]) -> TrafficClass:
        return pending[0]
