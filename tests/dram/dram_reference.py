"""Reference DRAM scheduling and rank-fence model: what the tests trust.

``Channel._service`` and ``Bank.commit`` inline the FR-FCFS scan (as an
indexed probe within one traffic class) and the rank fences for speed.
This module keeps the plain forms they were inlined from, one step per
function, so each can be read against the JEDEC constraint it encodes
and checked against the fused code:

* :class:`FrFcfsScheduler` -- first-ready FCFS over a bounded window;
* :func:`pick_class` -- the share policies' class pick over any number
  of pending classes, the N-class form of ``pick_between``;
* :func:`classify` -- the row-buffer outcome of the next access to a bank;
* the :class:`~repro.dram.bank.RankTimers` fences: :func:`activate_slot`
  and :func:`note_activate` (tRRD / tFAW), :func:`note_write_end` and
  :func:`read_ready` (tWTR), :func:`refresh_window` and
  :func:`complete_refresh` (tREFI / tRFC).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.dram.bank import Bank, RankTimers
from repro.dram.commands import MemRequest, TrafficClass
from repro.dram.scheduler import SingleClassPolicy


def classify(bank: Bank, row: int) -> str:
    """Row-buffer outcome if ``row`` were accessed next."""
    if bank.open_row is None:
        return "closed"
    return "hit" if bank.open_row == row else "conflict"


class _NullPickTracer:
    """Disabled-tracing sentinel (mirrors ``repro.obs.tracer.NULL_TRACER``)."""

    enabled = False


_NULL_PICK_TRACER = _NullPickTracer()


class FrFcfsScheduler:
    """First-ready FCFS pick over a bounded queue window."""

    def __init__(self, window: int = 24) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._tracer = _NULL_PICK_TRACER
        self._track = ""
        self._clock = None

    def bind_tracer(self, tracer, track: str, clock) -> None:
        """Attach a trace sink (``dram`` category).

        ``clock`` is the owning engine (read for ``now``); the scheduler
        itself stays time-free.  Only out-of-order picks are emitted --
        an FR-FCFS decision that deviates from FIFO is exactly the
        reordering a mean-preserving regression could hide.
        """
        self._tracer = tracer
        self._track = track
        self._clock = clock

    def pick(self, queue: Sequence[MemRequest], banks: Sequence[Bank]) -> int:
        """Index of the request to service next (queue must be non-empty).

        Prefers, within the scan window, a request whose bank currently has
        its row open (a row-buffer hit); falls back to the oldest request.
        """
        if not queue:
            raise ValueError("pick() on empty queue")
        limit = min(len(queue), self.window)
        for i in range(limit):
            req = queue[i]
            if classify(banks[req.bank], req.row) == "hit":
                if i and self._tracer.enabled:
                    self._tracer.instant(
                        "dram", "frfcfs_reorder", self._track,
                        self._clock.now,
                        {"index": i, "bank": req.bank, "depth": len(queue)},
                    )
                return i
        return 0


def pick_class(policy, pending: Sequence[TrafficClass]) -> TrafficClass:
    """Choose which class to serve among classes with queued requests.

    A :class:`~repro.dram.scheduler.SingleClassPolicy` serves the first.
    A :class:`~repro.dram.scheduler.SharePolicy` runs deficit round-robin
    on its own credits, so ``pick_between(a, b)`` must leave them as
    ``pick_class(policy, [a, b])`` does.
    """
    if isinstance(policy, SingleClassPolicy):
        return pending[0]
    candidates = list(pending)
    if len(candidates) == 1:
        # Work-conserving bypass: an uncontended slot costs no credit,
        # so a class running alone does not bank debt (or surplus)
        # against a class that was absent.
        return candidates[0]
    # Contended slot: every pending class earns its share, the winner
    # pays one slot.  Credits stay bounded by construction (shares sum
    # to <= 1 and the winner pays 1), but clamp anyway for safety.
    credit, share = policy._credit, policy._share
    for cls in candidates:
        credit[cls] = min(credit[cls] + share[cls], 2.0)
    best = max(candidates, key=lambda cls: (credit[cls],
                                            -candidates.index(cls)))
    credit[best] = max(credit[best] - 1.0, -2.0)
    return best


# -- activates ------------------------------------------------------------
def activate_slot(rank: RankTimers, lower_bound: int) -> int:
    """Earliest ACTIVATE at or after ``lower_bound`` honoring tRRD and
    tFAW.  Does not record the activate."""
    t = lower_bound
    acts = rank._acts
    if acts:
        fence = acts[-1] + rank._tRRD
        if fence > t:
            t = fence
        if len(acts) >= 4:
            fence = acts[-4] + rank._tFAW
            if fence > t:
                t = fence
    return t


def note_activate(rank: RankTimers, time: int) -> None:
    acts = rank._acts
    acts.append(time)
    if len(acts) > 4:
        del acts[0]


# -- write-to-read fence ----------------------------------------------------
def note_write_end(rank: RankTimers, time: int) -> None:
    if time > rank._last_write_end:
        rank._last_write_end = time


def read_ready(rank: RankTimers, earliest: int) -> int:
    """Earliest a READ column command may issue (tWTR after writes)."""
    fence = rank._last_write_end + rank._tWTR
    return fence if fence > earliest else earliest


# -- refresh ----------------------------------------------------------------
def refresh_window(rank: RankTimers, time: int) -> Optional[Tuple[int, int]]:
    """If a refresh is due at or before ``time``, return its window.

    The caller must invoke :func:`complete_refresh` to advance the
    schedule after stalling for the window.
    """
    due = rank.refresh
    if time >= due:
        return (due, due + rank._tRFC)
    return None


def complete_refresh(rank: RankTimers) -> None:
    rank.refreshes += 1
    rank.refresh += rank._tREFI
