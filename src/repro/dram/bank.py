"""DRAM bank state machine.

A bank tracks its open row and the JEDEC timestamps needed to decide when
the *data burst* of the next access can start.  The channel's service
loop picks a request with FR-FCFS (probing :attr:`Bank.open_row` for row
hits), then calls :meth:`Bank.commit`, which advances the state machine
and returns the actual data-start time; under the close-page policy
:meth:`Bank.close_after_access` follows.

The model back-dates PRECHARGE/ACTIVATE preparation as early as the bank
and rank constraints allow (but never before the request's arrival), which
captures the command/data overlap a real FR-FCFS controller achieves
without simulating individual command slots.

Both classes carry ``__slots__`` and cache the JEDEC parameters they use
as plain instance attributes: ``commit`` runs once per serviced request,
and the indirection through the timing dataclass was measurable there.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.dram.commands import MemRequest
from repro.dram.timing import DDR3Timing
from repro.sim.periodic import PeriodicStream


class Bank:
    """One DRAM bank: open-row register plus timing bookkeeping."""

    __slots__ = (
        "timing",
        "rank",
        "open_row",
        "_act_time",
        "_pre_ready",
        "_act_ready",
        "hits",
        "misses",
        "conflicts",
        "record_commands",
        "last_commands",
        "_tRCD",
        "_tRP",
        "_tRC",
        "_tRAS",
        "_tWR",
        "_tRTP",
        "_tCL",
        "_tCWL",
        "_tBURST",
    )

    def __init__(self, timing: DDR3Timing, rank: "RankTimers") -> None:
        self.timing = timing
        self.rank = rank
        #: Currently open row, or ``None`` when precharged.
        self.open_row: Optional[int] = None
        #: Tick of the last ACTIVATE.
        self._act_time: int = -(10**12)
        #: Earliest tick a PRECHARGE may issue (tRAS / tWR / tRTP fences).
        self._pre_ready: int = 0
        #: Earliest tick an ACTIVATE may issue (tRP / tRC fences).
        self._act_ready: int = 0
        # Row-buffer statistics, read by the channel.
        self.hits = 0
        self.misses = 0
        self.conflicts = 0
        #: When set (protocol-compliance replay), :meth:`commit` records
        #: the implied command schedule into :attr:`last_commands` as
        #: ``(kind, time, row)`` tuples.  Off by default -- zero cost on
        #: the hot path.
        self.record_commands = False
        self.last_commands: list = []
        # Hot-path timing caches (see module docstring).
        self._tRCD = timing.tRCD
        self._tRP = timing.tRP
        self._tRC = timing.tRC
        self._tRAS = timing.tRAS
        self._tWR = timing.tWR
        self._tRTP = timing.tRTP
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._tBURST = timing.tBURST

    # ------------------------------------------------------------------
    def classify(self, row: int) -> str:
        """Row-buffer outcome if ``row`` were accessed next."""
        if self.open_row is None:
            return "closed"
        return "hit" if self.open_row == row else "conflict"

    def commit(self, req: MemRequest, earliest: int, floor: int = 0) -> Tuple[int, str]:
        """Schedule ``req``; returns ``(data_start, outcome)``.

        ``floor`` is the earliest the data burst may start for reasons the
        bank cannot see (the channel data bus being busy); all recovery
        fences are computed from the *actual* burst time.  ``outcome`` is
        ``"hit"``, ``"closed"`` or ``"conflict"`` for row-buffer statistics.
        """
        # Plan and state advance in one pass, with the RankTimers checks
        # inlined -- this runs once per serviced request.
        row = req.row
        open_row = self.open_row
        is_write = req.is_write
        cas = self._tCWL if is_write else self._tCL
        rank = self.rank

        if open_row == row:  # hit (open_row is never None here)
            outcome = "hit"
            self.hits += 1
            act_time = self._act_time
            pre_time = None
            col = act_time + self._tRCD
            if col < earliest:
                col = earliest
            if not is_write:
                ready = rank._last_write_end + rank._tWTR  # read_ready
                if ready > col:
                    col = ready
            data_start = col + cas
        else:
            act_ready = self._act_ready
            if open_row is not None:  # conflict: PRECHARGE first
                outcome = "conflict"
                self.conflicts += 1
                pre_time = self._pre_ready
                if pre_time < earliest:
                    pre_time = earliest
                act_lb = pre_time + self._tRP
                if act_lb < act_ready:
                    act_lb = act_ready
            else:  # closed
                outcome = "closed"
                self.misses += 1
                pre_time = None
                act_lb = act_ready if act_ready > earliest else earliest
            # Inline of rank.activate_slot / note_activate (tRRD + tFAW).
            act_time = act_lb
            acts = rank._acts
            if acts:
                fence = acts[-1] + rank._tRRD
                if fence > act_time:
                    act_time = fence
                if len(acts) >= 4:
                    fence = acts[-4] + rank._tFAW
                    if fence > act_time:
                        act_time = fence
            col = act_time + self._tRCD
            if not is_write:
                ready = rank._last_write_end + rank._tWTR  # read_ready
                if ready > col:
                    col = ready
            data_start = col + cas
            # The ACTIVATE (possibly preceded by a PRECHARGE) happened.
            acts.append(act_time)
            if len(acts) > 4:
                del acts[0]
            self._act_time = act_time
            self._act_ready = act_time + self._tRC
            self.open_row = row

        if data_start < floor:
            data_start = floor
        col_time = data_start - cas
        if self.record_commands:
            self.last_commands = []
            if pre_time is not None:
                self.last_commands.append(("PRE", pre_time, None))
            if outcome != "hit":
                self.last_commands.append(("ACT", act_time, row))
            self.last_commands.append(
                ("WR" if is_write else "RD", col_time, row)
            )
        if is_write:
            # Write recovery fences the next precharge after the data burst.
            write_end = data_start + self._tBURST
            pre_ready = write_end + self._tWR
            act_fence = act_time + self._tRAS
            if act_fence > pre_ready:
                pre_ready = act_fence
            if pre_ready > self._pre_ready:
                self._pre_ready = pre_ready
            if write_end > rank._last_write_end:  # note_write_end
                rank._last_write_end = write_end
        else:
            pre_ready = col_time + self._tRTP
            act_fence = act_time + self._tRAS
            if act_fence > pre_ready:
                pre_ready = act_fence
            if pre_ready > self._pre_ready:
                self._pre_ready = pre_ready
        return data_start, outcome

    def force_precharge(self, time: int) -> None:
        """Close the row (refresh or page-close policy)."""
        self.open_row = None
        self._act_ready = max(self._act_ready, time)

    def close_after_access(self) -> int:
        """Close-page policy: precharge at the earliest legal tick after
        the access just committed (honoring tRAS/tWR/tRTP recovery).
        Returns the PRECHARGE time and appends it to the command record
        when recording is on."""
        pre_time = self._pre_ready
        self.open_row = None
        self._act_ready = max(self._act_ready, pre_time + self._tRP)
        if self.record_commands:
            self.last_commands.append(("PRE", pre_time, None))
        return pre_time


class RankTimers:
    """Per-rank constraints shared by the rank's banks.

    Tracks the tFAW four-activate window, tRRD activate spacing, the
    write-to-read (tWTR) fence, and the periodic refresh schedule.
    """

    __slots__ = (
        "timing",
        "_acts",
        "_last_write_end",
        "refresh",
        "refreshes",
        "_tRRD",
        "_tFAW",
        "_tWTR",
        "_tREFI",
        "_tRFC",
    )

    def __init__(self, timing: DDR3Timing) -> None:
        self.timing = timing
        #: Ticks of the most recent activates (at most 4 kept).
        self._acts: list = []
        self._last_write_end = -(10**12)
        #: The refresh deadline as a lazy occurrence stream: one window
        #: every tREFI, first due one interval in.  The channel's service
        #: loop consumes overdue windows in closed form (see
        #: :mod:`repro.sim.periodic`).
        self.refresh = PeriodicStream(timing.tREFI)
        self.refreshes = 0
        self._tRRD = timing.tRRD
        self._tFAW = timing.tFAW
        self._tWTR = timing.tWTR
        self._tREFI = timing.tREFI
        self._tRFC = timing.tRFC

    # -- activates ------------------------------------------------------
    def activate_slot(self, lower_bound: int) -> int:
        """Earliest ACTIVATE at or after ``lower_bound`` honoring
        tRRD and tFAW.  Does not record the activate."""
        t = lower_bound
        acts = self._acts
        if acts:
            fence = acts[-1] + self._tRRD
            if fence > t:
                t = fence
            if len(acts) >= 4:
                fence = acts[-4] + self._tFAW
                if fence > t:
                    t = fence
        return t

    def note_activate(self, time: int) -> None:
        acts = self._acts
        acts.append(time)
        if len(acts) > 4:
            del acts[0]

    # -- write-to-read fence ---------------------------------------------
    def note_write_end(self, time: int) -> None:
        if time > self._last_write_end:
            self._last_write_end = time

    def read_ready(self, earliest: int) -> int:
        """Earliest a READ column command may issue (tWTR after writes)."""
        fence = self._last_write_end + self._tWTR
        return fence if fence > earliest else earliest

    # -- refresh ----------------------------------------------------------
    def refresh_window(self, time: int) -> Optional[Tuple[int, int]]:
        """If a refresh is due at or before ``time``, return its window.

        The caller must invoke :meth:`complete_refresh` to advance the
        schedule after stalling for the window.
        """
        due = self.refresh.next_due
        if time >= due:
            return (due, due + self._tRFC)
        return None

    def complete_refresh(self) -> None:
        self.refreshes += 1
        stream = self.refresh
        stream.occurrences += 1
        stream.next_due += self._tREFI
