"""Event-driven reorder-buffer core model (USIMM front end).

Semantics reproduced from USIMM's processor model (Table II parameters):

* in-order retirement at ``retire_width`` instructions per cycle;
* a load blocks retirement until its data returns from the memory system,
  so a long-latency miss eventually fills the ROB and stalls fetch;
* stores retire as soon as they are accepted by a write queue, but a full
  write queue back-pressures fetch;
* fetch supplies ``fetch_width`` instructions per cycle while ROB space
  remains.

Instead of ticking every cycle, the model advances analytically between
memory events: non-memory instructions (the MPKI "gap" in each trace
record) are fetched and retired in chunks at the pipeline widths, and the
core sleeps whenever it is blocked on a memory completion or queue space.
Chunked accounting rounds each chunk up to whole cycles; with the paper's
gap sizes (37-240 instructions between misses) the rounding error is well
under 1 % and identical across schemes.

The core talks to the memory system through the small :class:`MemoryPort`
duck-type, which lets the same model drive direct-attached channels, BOB
links, or the ORAM front end.

The wake/retire/fetch methods run once per memory event across every core
in a sweep, so they cache the pipeline widths as plain ints, pre-bind the
stat recorders (no f-string keys per retired op), and use the pending op
itself as its completion callback (no closure per issued load).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterator, Optional

from repro.dram.commands import OpType
from repro.sim.engine import CPU_CYCLE_TICKS, Engine, _NO_ARG
from repro.sim.stats import StatSet
from repro.trace.trace_format import TraceRecord

_READ = OpType.READ
_WRITE = OpType.WRITE

#: Smallest remaining instruction gap worth crunching (see ``_crunch``):
#: below this the setup cost plus the issue-stop re-run beats the saved
#: dispatches, so the wakes are dispatched normally.  Purely a
#: performance knob -- any value yields the same simulation.
_CRUNCH_MIN_GAP = 32


@dataclass(frozen=True)
class CoreParams:
    """Pipeline parameters (defaults are the paper's Table II)."""

    rob_size: int = 128
    fetch_width: int = 4
    retire_width: int = 4

    def __post_init__(self) -> None:
        if min(self.rob_size, self.fetch_width, self.retire_width) < 1:
            raise ValueError("core parameters must be positive")


class MemoryPort:
    """Interface cores use to reach the memory system.

    Implementations: per-app channel router (direct-attached), the BOB
    main controller, and the ORAM front end.
    """

    def can_accept(self, op: OpType) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def issue(
        self,
        op: OpType,
        line_addr: int,
        app_id: int,
        on_complete: Optional[Callable[[int], None]],
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def notify_on_space(self, callback: Callable[[], None]) -> None:  # pragma: no cover
        raise NotImplementedError


class _PendingOp:
    """A memory instruction occupying the ROB.

    A pending load doubles as its own completion callback: the memory
    system calls ``entry(finish_time)``, sparing the core a closure
    allocation per issued read.
    """

    __slots__ = ("idx", "is_write", "complete", "issued_at", "core")

    def __init__(self, idx: int, is_write: bool, issued_at: int,
                 core: "Core") -> None:
        self.idx = idx
        self.is_write = is_write
        self.issued_at = issued_at
        self.complete: Optional[int] = None
        self.core = core

    def __call__(self, time: int) -> None:
        self.complete = time
        self.core._schedule_wake(time)


class Core:
    """One trace-driven core."""

    __slots__ = (
        "engine", "app_id", "params", "port", "on_finish", "name", "stats",
        "_trace", "_gap_remaining", "_mem_op", "_trace_exhausted",
        "_instr_fetched", "_fetch_time", "_retired_idx", "_retire_time",
        "_pending", "finished", "finish_time", "_wake_pending_at",
        "_waiting_for_space", "_rob_size", "_fetch_width", "_retire_width",
        "_loads_retired", "_stores_retired", "_loads_issued",
        "_stores_issued", "_load_to_use", "_crunch_ok",
    )

    def __init__(
        self,
        engine: Engine,
        app_id: int,
        trace: Iterator[TraceRecord],
        port: MemoryPort,
        params: CoreParams = CoreParams(),
        on_finish: Optional[Callable[[int], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.app_id = app_id
        self.params = params
        self.port = port
        self.on_finish = on_finish
        self.name = name or f"core{app_id}"
        self.stats = StatSet(self.name)

        self._trace = trace
        self._gap_remaining = 0
        self._mem_op: Optional[TraceRecord] = None
        self._trace_exhausted = False

        self._instr_fetched = 0
        self._fetch_time = 0
        self._retired_idx = 0
        self._retire_time = 0
        self._pending: Deque[_PendingOp] = deque()

        self.finished = False
        self.finish_time: Optional[int] = None

        self._wake_pending_at: Optional[int] = None
        self._waiting_for_space = False

        # Hot-path caches (see module docstring).
        self._rob_size = params.rob_size
        self._fetch_width = params.fetch_width
        self._retire_width = params.retire_width
        self._loads_retired = self.stats.counter("loads_retired")
        self._stores_retired = self.stats.counter("stores_retired")
        self._loads_issued = self.stats.counter("loads_issued")
        self._stores_issued = self.stats.counter("stores_issued")
        self._load_to_use = self.stats.latency("load_to_use")
        # Gap crunching (see _crunch) is only sound when synthesized
        # occurrences are allowed and no per-dispatch engine trace would
        # miss the skipped wakes.
        self._crunch_ok = (
            engine.lazy_periodic and not engine._tracer.enabled
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first wake at time 0."""
        self._schedule_wake(self.engine.now)

    @property
    def rob_occupancy(self) -> int:
        return self._instr_fetched - self._retired_idx

    # ------------------------------------------------------------------
    # Wake machinery
    # ------------------------------------------------------------------
    def _schedule_wake(self, time: int) -> None:
        engine = self.engine
        now = engine.now
        if time < now:
            time = now
        pending = self._wake_pending_at
        if pending is not None and pending <= time:
            return
        self._wake_pending_at = time
        # Inline of ``engine.at(time, self._wake)``: the clamp above
        # guarantees ``time >= now``, so the past-time guard is redundant
        # and this is the single hottest scheduling site in a sweep.
        seq = engine._seq
        engine._seq = seq + 1
        engine._push((time, seq, self._wake, _NO_ARG))

    def _wake(self) -> None:
        """Advance retirement, fetch/issue, then re-arm the next wake.

        One fused pass: half of every whole-system run's dispatches are
        core wakes, so the retirement and fetch loops share one set of
        locals (written back on every exit) instead of paying separate
        method calls and attribute round-trips.  Nothing reached from
        ``port.issue``/``notify_on_space`` mutates these fields
        synchronously -- completions and space callbacks only schedule
        wakes -- and the wake this pass decides on is pushed exactly
        where the unfused code pushed it (before any finish callback),
        preserving engine sequence order.
        """
        self._wake_pending_at = None
        if self.finished:
            return
        engine = self.engine
        now = engine.now
        pending = self._pending
        retire_width = self._retire_width
        retired_idx = self._retired_idx
        retire_time = self._retire_time
        instr_fetched = self._instr_fetched

        # ---- retirement: retire everything that can retire by now ----
        while True:
            frontier = pending[0].idx if pending else instr_fetched
            gap = frontier - retired_idx
            if gap > 0:
                full = retire_time + -(-gap // retire_width) * CPU_CYCLE_TICKS
                if full <= now:
                    retired_idx = frontier
                    retire_time = full
                else:
                    avail = (now - retire_time) // CPU_CYCLE_TICKS
                    n = avail * retire_width
                    if n > gap:
                        n = gap
                    if n > 0:
                        retired_idx += n
                        retire_time += -(-n // retire_width) * CPU_CYCLE_TICKS
                    break  # pace-limited; nothing older can unblock us
            if not pending:
                break
            head = pending[0]
            if head.idx != retired_idx:
                break  # younger than the pace frontier; loop handled above
            complete = head.complete
            if complete is None or complete > now:
                break  # oldest op still waiting on memory
            if complete > retire_time:
                retire_time = complete
            retired_idx += 1
            pending.popleft()
            if head.is_write:
                self._stores_retired.value += 1
            else:
                self._loads_retired.value += 1
                # Inline of LatencyStat.record (completion time is
                # never before issue, so the negative guard is moot).
                lat = complete - head.issued_at
                stat = self._load_to_use
                stat.count += 1
                stat.total += lat
                bound = stat.min
                if bound is None or lat < bound:
                    stat.min = lat
                bound = stat.max
                if bound is None or lat > bound:
                    stat.max = lat
        self._retired_idx = retired_idx
        self._retire_time = retire_time

        # ---- fetch and issue ----
        rob_size = self._rob_size
        fetch_width = self._fetch_width
        port = self.port
        gap_remaining = self._gap_remaining
        fetch_time = self._fetch_time
        mem_op = self._mem_op
        wake_at = None
        try:
            while True:
                if mem_op is None and gap_remaining == 0:
                    # Inline of the old _pull_next_record.
                    if self._trace_exhausted:
                        break
                    try:
                        mem_op = next(self._trace)
                    except StopIteration:
                        self._trace_exhausted = True
                        break
                    gap_remaining = mem_op.gap
                free = rob_size - (instr_fetched - retired_idx)
                if free <= 0:
                    if pending and pending[0].complete is None:
                        break  # the read completion callback will wake us
                    # Pace-limited: retirement frees slots next cycle.  The
                    # retirement pass guarantees retire_time + 1 cycle > now,
                    # so this wake always lands strictly in the future.
                    wake_at = retire_time + CPU_CYCLE_TICKS
                    break
                if fetch_time > now:
                    wake_at = fetch_time
                    break

                # fetch_time <= now from here on, so issue/fetch stamps
                # collapse to ``now``.
                if gap_remaining > 0:
                    n = gap_remaining if gap_remaining < free else free
                    instr_fetched += n
                    gap_remaining -= n
                    fetch_time = now + -(-n // fetch_width) * CPU_CYCLE_TICKS
                    continue

                record = mem_op
                if record is None:
                    continue
                is_write = record.is_write
                op = _WRITE if is_write else _READ
                if not port.can_accept(op):
                    if not self._waiting_for_space:
                        self._waiting_for_space = True
                        port.notify_on_space(self._space_available)
                    break

                entry = _PendingOp(instr_fetched, is_write, now, self)
                pending.append(entry)
                instr_fetched += 1
                fetch_time = now + CPU_CYCLE_TICKS
                mem_op = None

                if is_write:
                    # Stores retire once accepted by the write queue.
                    entry.complete = now
                    port.issue(op, record.line_addr, self.app_id, None)
                    self._stores_issued.value += 1
                else:
                    # The entry is its own completion callback.
                    port.issue(op, record.line_addr, self.app_id, entry)
                    self._loads_issued.value += 1
        finally:
            self._instr_fetched = instr_fetched
            self._gap_remaining = gap_remaining
            self._fetch_time = fetch_time
            self._mem_op = mem_op

        # ---- re-arm: push the wake the fetch loop decided on ----
        if wake_at is not None:
            # A fetch-loop wake implies undrained fetch state, so the
            # finish check below cannot fire; pushing here keeps the
            # engine seq order of the unfused code.
            if wake_at < now:
                wake_at = now
            elif (
                wake_at > now
                and gap_remaining >= _CRUNCH_MIN_GAP
                and not pending
                and self._crunch_ok
                and not self._waiting_for_space
            ):
                # Quiescent gap: no in-flight op and no space callback
                # means nothing external can wake or observe this core,
                # so successive wakes are a closed function of core
                # state -- crunch them here instead of dispatching each.
                # The gap floor keeps the crunch out of memory-bound
                # phases, where its setup cost plus the re-run of the
                # issue-stopped iteration exceeds the few dispatches it
                # would save (skipping is always census-safe: the wakes
                # are simply dispatched like eager mode would).
                wake_at = self._crunch(wake_at)
            self._wake_pending_at = wake_at
            seq = engine._seq
            engine._seq = seq + 1
            engine._push((wake_at, seq, self._wake, _NO_ARG))
            return
        if (
            self._trace_exhausted
            and mem_op is None
            and gap_remaining == 0
            and not pending
        ):
            self._check_finished()
        if self.finished:
            return
        # Nothing else will wake us if the only remaining work is paced
        # retirement of instructions behind an already-completed head op
        # (e.g. a store, or a load whose data arrived this tick).
        if pending:
            head = pending[0]
            complete = head.complete
            if complete is not None:
                gap = head.idx - retired_idx
                pace_done = retire_time + (
                    -(-gap // retire_width) * CPU_CYCLE_TICKS
                )
                target = pace_done if pace_done > complete else complete
                if target < now:
                    target = now
                self._wake_pending_at = target
                seq = engine._seq
                engine._seq = seq + 1
                engine._push((target, seq, self._wake, _NO_ARG))

    # ------------------------------------------------------------------
    # Gap crunching (lazy periodic mode)
    # ------------------------------------------------------------------
    def _crunch(self, sim_now: int) -> int:
        """Fast-forward successive wakes across a quiescent stretch.

        Preconditions (checked by the caller): the pending deque is
        empty, no space callback is registered, and ``sim_now`` (the next
        wake) is strictly in the future.  Under those, the only events
        that can exist before the next *foreign* engine event are this
        core's own wakes, and each wake's effect is pure arithmetic on
        the fetch/retire state -- so iterations are simulated locally
        (one synthesized occurrence each) instead of dispatched.

        Stopping rules keep the observable timeline bit-identical to the
        eager census:

        * An iteration that would interact with the memory port (issue a
          request) or finish the trace is *not* simulated; the single
          real wake this method returns re-runs it at the same tick
          (retirement at an already-processed tick is idempotent), so
          issue/arrival stamps, port state reads, and finish bookkeeping
          happen exactly where eager dispatch put them.
        * Crunching never crosses the earliest foreign queued event:
          past it, foreign same-tick FIFO interleavings could differ.
          The wake pushed for the first not-simulated iteration then
          occupies the same seq position eager's push would (after all
          currently queued entries, before anything a later dispatch
          pushes), so same-tick ordering is preserved too.

        Inside a long gap the iteration pattern reaches a steady state
        (retire ``w``, fetch ``w``, advance one cycle); once detected it
        is applied in closed form, making a multi-thousand-instruction
        gap O(1) instead of O(gap / width).
        """
        engine = self.engine
        limit = engine.peek_time()
        if limit is not None and sim_now >= limit:
            return sim_now
        retired_idx = self._retired_idx
        retire_time = self._retire_time
        instr_fetched = self._instr_fetched
        fetch_time = self._fetch_time
        gap_remaining = self._gap_remaining
        mem_op = self._mem_op
        trace = self._trace
        rob_size = self._rob_size
        fetch_width = self._fetch_width
        retire_width = self._retire_width
        cyc = CPU_CYCLE_TICKS
        steady_ok = fetch_width == retire_width and rob_size > fetch_width
        synthesized = 0
        try:
            while True:
                # -- retirement at sim_now (pending empty -> frontier is
                # the fetch head); mirrors the _wake retirement pass.
                gap = instr_fetched - retired_idx
                if gap > 0:
                    full = retire_time + -(-gap // retire_width) * cyc
                    if full <= sim_now:
                        retired_idx = instr_fetched
                        retire_time = full
                    else:
                        avail = (sim_now - retire_time) // cyc
                        n = avail * retire_width
                        if n > gap:
                            n = gap
                        if n > 0:
                            retired_idx += n
                            retire_time += -(-n // retire_width) * cyc
                # -- fetch; mirrors the _wake fetch loop up to the first
                # port interaction.
                next_wake = None
                while True:
                    if mem_op is None and gap_remaining == 0:
                        if self._trace_exhausted:
                            break
                        try:
                            mem_op = next(trace)
                        except StopIteration:
                            self._trace_exhausted = True
                            break
                        gap_remaining = mem_op.gap
                    free = rob_size - (instr_fetched - retired_idx)
                    if free <= 0:
                        next_wake = retire_time + cyc
                        break
                    if fetch_time > sim_now:
                        next_wake = fetch_time
                        break
                    if gap_remaining > 0:
                        n = gap_remaining if gap_remaining < free else free
                        instr_fetched += n
                        gap_remaining -= n
                        fetch_time = sim_now + -(-n // fetch_width) * cyc
                        continue
                    # A memory op would issue here: stop un-simulated.
                    return sim_now
                if next_wake is None:
                    # Trace drained: the real wake finishes at sim_now.
                    return sim_now
                synthesized += 1
                if limit is not None and next_wake >= limit:
                    return next_wake
                sim_now = next_wake
                if (
                    steady_ok
                    and gap_remaining > 3 * fetch_width
                    and instr_fetched - retired_idx == rob_size
                    and sim_now - retire_time == cyc
                    and fetch_time == sim_now
                ):
                    # Steady state: each iteration retires and fetches
                    # exactly one width's worth and advances one cycle.
                    m = gap_remaining // fetch_width - 2
                    if limit is not None:
                        by_time = (limit - 1 - sim_now) // cyc
                        if by_time < m:
                            m = by_time
                    if m > 0:
                        dn = m * fetch_width
                        dt = m * cyc
                        retired_idx += dn
                        instr_fetched += dn
                        gap_remaining -= dn
                        retire_time += dt
                        fetch_time += dt
                        sim_now += dt
                        synthesized += m
        finally:
            self._retired_idx = retired_idx
            self._retire_time = retire_time
            self._instr_fetched = instr_fetched
            self._fetch_time = fetch_time
            self._gap_remaining = gap_remaining
            self._mem_op = mem_op
            engine._synthesized += synthesized

    # ------------------------------------------------------------------
    # Retirement accounting
    # ------------------------------------------------------------------
    def _cycles_ticks(self, n_instr: int, width: int) -> int:
        """Ticks to move ``n_instr`` instructions at ``width`` per cycle."""
        cycles = -(-n_instr // width)  # ceil division
        return cycles * CPU_CYCLE_TICKS

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def _read_complete(self, entry: _PendingOp, time: int) -> None:
        entry.complete = time
        self._schedule_wake(time)

    def _space_available(self) -> None:
        self._waiting_for_space = False
        self._schedule_wake(self.engine.now)

    # ------------------------------------------------------------------
    def _check_finished(self) -> None:
        if self.finished:
            return
        drained = (
            self._trace_exhausted
            and self._mem_op is None
            and self._gap_remaining == 0
            and not self._pending
        )
        if not drained:
            return
        # Let the last paced instructions retire.
        if self._retired_idx < self._instr_fetched:
            gap = self._instr_fetched - self._retired_idx
            self._retire_time += self._cycles_ticks(gap, self._retire_width)
            self._retired_idx = self._instr_fetched
        self.finished = True
        self.finish_time = max(self._retire_time, self.engine.now)
        self.stats.counter("instructions").add(self._instr_fetched)
        if self.on_finish is not None:
            self.on_finish(self.finish_time)

    # ------------------------------------------------------------------
    def ipc(self) -> float:
        """Retired instructions per CPU cycle (needs a finished core)."""
        if not self.finish_time:
            return 0.0
        cycles = self.finish_time / CPU_CYCLE_TICKS
        return self._instr_fetched / cycles if cycles else 0.0
