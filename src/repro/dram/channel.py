"""One DRAM (sub-)channel: banks, queues, data bus, and scheduler.

The channel is the unit of bandwidth in every experiment: the paper's
direct-attached baseline has four of them; the BOB configuration puts four
*sub-channels* (each an instance of this class) behind the secure channel's
on-board controller and one behind each normal channel.

Event flow
----------
``enqueue()`` accepts a :class:`MemRequest`, then a service loop picks
requests with FR-FCFS (optionally arbitrated between secure/normal traffic
classes by a :class:`SharePolicy`), computes when the bank can deliver the
data burst, occupies the data bus for ``tBURST``, and fires the request's
completion callback when the burst ends.  Bank preparation (PRE/ACT) is
back-dated as early as JEDEC constraints allow, modeling the command/data
overlap of a real pipelined controller.

ORAM phases
-----------
``enqueue_phase()`` takes one ORAM phase's share of the channel in one
call: one request per block, in order, behind one service kick -- exactly
what per-block ``enqueue()`` calls would leave.  Completions that do
nothing (:func:`~repro.dram.commands.ignore_completion`, and the members
of a :class:`~repro.dram.commands.CompletionGroup` other than the last
serviced) take the sequence number their event would have taken and are
booked in the engine's census instead of pushed when the engine allows
it (``Engine._ledger``; DESIGN.md section 9a).

FR-FCFS indexing
----------------
Each queue keeps a per-bank ``{row: [requests...]}`` side index, maintained
on enqueue/dequeue.  A pick then probes each bank's open row directly --
the first-ready request is the minimum ``_enq_seq`` over the bucket heads
-- instead of rescanning the queue window per service.  Queue position
order equals ``_enq_seq`` order (appends are monotonic, removals preserve
relative order), so the probe selects exactly the request the windowed
first-ready scan (``_scan_pick``) would; the scan remains the fallback
for the two cases it doesn't cover (queue deeper than the scheduler
window, and mixed-traffic slots where the share policy filters candidates
first).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.dram.bank import Bank, RankTimers
from repro.dram.commands import (
    CompletionGroup,
    MemRequest,
    OpType,
    TrafficClass,
    ignore_completion,
)
from repro.dram.scheduler import SharePolicy, SingleClassPolicy
from repro.dram.timing import ChannelParams, DDR3Timing, DDR3_1600, DEFAULT_CHANNEL_PARAMS
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Engine, _NO_ARG
from repro.sim.stats import StatSet

#: Larger than any real ``_enq_seq``; sentinel for the bucket-head probe.
_NO_PICK = 1 << 62


class Channel:
    """A DRAM channel with one rank of banks and a shared data bus."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        timing: DDR3Timing = DDR3_1600,
        params: ChannelParams = DEFAULT_CHANNEL_PARAMS,
        share_policy: Optional[SharePolicy] = None,
        tracer=None,
        page_policy: str = "open",
    ) -> None:
        if page_policy not in ("open", "close"):
            raise ValueError(f"unknown page policy {page_policy!r}")
        self.engine = engine
        self.name = name
        self.timing = timing
        self.params = params
        self.page_policy = page_policy
        #: Optional protocol-compliance log of ``DramCommand`` entries;
        #: enabled via :meth:`start_command_log`.
        self.command_log = None
        #: Fault-injection site (``repro.faults``); ``None`` keeps the
        #: service loop on its zero-overhead fast branch.
        self._faults = None
        self.rank = RankTimers(timing)
        self.banks: List[Bank] = [
            Bank(timing, self.rank) for _ in range(params.num_banks)
        ]
        self.share_policy = share_policy or SingleClassPolicy()
        self._tracer = (tracer if tracer is not None else NULL_TRACER).category(
            "dram"
        )

        self.read_q: List[MemRequest] = []
        self.write_q: List[MemRequest] = []
        #: Per-bank ``{row: [requests]}`` side indexes (see module docstring).
        self._rq_index: List[Dict[int, List[MemRequest]]] = [
            {} for _ in range(params.num_banks)
        ]
        self._wq_index: List[Dict[int, List[MemRequest]]] = [
            {} for _ in range(params.num_banks)
        ]
        self._enq_counter = 0
        self._draining = False
        self._bus_free = 0
        self._last_op: Optional[OpType] = None
        self._service_scheduled = False
        self._space_waiters: List[Callable[[], None]] = []

        self.stats = StatSet(name)
        self._busy_ticks = 0
        # Hot-path accelerators: cached params/timing ints, pre-bound stat
        # recorders (avoids per-request f-string keys and dict lookups),
        # and per-queue secure-class counters (skips class scans when
        # traffic is homogeneous).
        self._rq_depth = params.read_queue_depth
        self._wq_depth = params.write_queue_depth
        self._window = params.scheduler_window
        self._tBURST = timing.tBURST
        self._tRTW = timing.tRTW
        self._close_page = page_policy == "close"
        #: Indexed ``2*is_write + is_secure`` -> (kind latency stat,
        #: class latency stat, serviced counter) objects; ``_service``
        #: updates their fields inline rather than paying two method
        #: calls per serviced request.
        self._lat_by_req = []
        for is_write, kind in ((False, "read"), (True, "write")):
            for traffic in (TrafficClass.NORMAL, TrafficClass.SECURE):
                self._lat_by_req.append((
                    self.stats.latency(f"{kind}_latency"),
                    self.stats.latency(f"{traffic.value}_{kind}_latency"),
                    self.stats.counter(f"{kind}s_serviced"),
                ))
        self._row_counters = {
            outcome: self.stats.counter(f"row_{outcome}")
            for outcome in ("hit", "closed", "conflict")
        }
        self._rq_secure = 0
        self._wq_secure = 0
        # Refresh census plumbing: the rank's deadline stream (eager mode
        # pins it to one window per service dispatch, the pre-lazy
        # census), plus cached tREFI/tRFC and the refresh counter so the
        # catch-up path does closed-form batches without dict lookups.
        self._refresh_stream = self.rank.refresh
        self._refresh_stream.eager = not engine.lazy_periodic
        self._tREFI = timing.tREFI
        self._tRFC = timing.tRFC
        self._refreshes_counter = self.stats.counter("refreshes")

    # ------------------------------------------------------------------
    # Front-end interface
    # ------------------------------------------------------------------
    def can_accept(self, op: OpType) -> bool:
        """Queue-space check; front ends must test before ``enqueue``."""
        if op is OpType.WRITE:
            return len(self.write_q) < self._wq_depth
        return len(self.read_q) < self._rq_depth

    def enqueue(self, req: MemRequest) -> None:
        """Accept a request.  Raises if the target queue is full."""
        bank = req.bank
        if not 0 <= bank < len(self.banks):
            raise ValueError(f"{self.name}: bank {bank} out of range")
        req.arrival = self.engine.now
        seq = self._enq_counter
        self._enq_counter = seq + 1
        req._enq_seq = seq
        if req.is_write:
            if len(self.write_q) >= self._wq_depth:
                raise RuntimeError(f"{self.name}: write queue full")
            self.write_q.append(req)
            index = self._wq_index[bank]
            if req.traffic is TrafficClass.SECURE:
                self._wq_secure += 1
        else:
            if len(self.read_q) >= self._rq_depth:
                raise RuntimeError(f"{self.name}: read queue full")
            self.read_q.append(req)
            index = self._rq_index[bank]
            if req.traffic is TrafficClass.SECURE:
                self._rq_secure += 1
        bucket = index.get(req.row)
        if bucket is None:
            index[req.row] = [req]
        else:
            bucket.append(req)
        if not self._service_scheduled:
            self._kick()

    def free_slots(self, op: OpType) -> int:
        """Queue entries ``op`` requests may still take right now."""
        if op is OpType.WRITE:
            return self._wq_depth - len(self.write_q)
        return self._rq_depth - len(self.read_q)

    def enqueue_phase(
        self,
        blocks,
        op: OpType,
        app_id: int,
        traffic: TrafficClass,
        on_complete: Callable[[int], None],
    ) -> None:
        """Accept a phase's share of this channel: one request per block.

        ``blocks`` are placements (``channel``, ``subchannel``, ``bank``,
        ``row`` and ``col`` attributes) in issue order, all completing
        through ``on_complete``.  The queues, the FR-FCFS indexes and the
        service kick end up exactly as ``enqueue`` of each request in turn
        would leave them.  The caller sizes ``blocks`` to
        :meth:`free_slots`; overfilling raises.
        """
        if op is OpType.WRITE:
            queue, indexes, depth = self.write_q, self._wq_index, self._wq_depth
        else:
            queue, indexes, depth = self.read_q, self._rq_index, self._rq_depth
        count = len(blocks)
        if len(queue) + count > depth:
            raise RuntimeError(f"{self.name}: {op.value} queue full")
        num_banks = len(self.banks)
        now = self.engine.now
        seq = self._enq_counter
        for block in blocks:
            bank = block.bank
            if not 0 <= bank < num_banks:
                raise ValueError(f"{self.name}: bank {bank} out of range")
            row = block.row
            req = MemRequest(
                op, block.channel, block.subchannel, bank, row, block.col,
                app_id, traffic, now, on_complete,
            )
            req._enq_seq = seq
            seq += 1
            queue.append(req)
            index = indexes[bank]
            bucket = index.get(row)
            if bucket is None:
                index[row] = [req]
            else:
                bucket.append(req)
        self._enq_counter = seq
        if traffic is TrafficClass.SECURE:
            if op is OpType.WRITE:
                self._wq_secure += count
            else:
                self._rq_secure += count
        if count and not self._service_scheduled:
            self._kick()

    def _kick(self) -> None:
        """Schedule a service pass (the queue just went from idle)."""
        self._service_scheduled = True
        # Inline of Engine.at: the kick time is clamped to >= now, so
        # the past-schedule guard cannot fire.
        engine = self.engine
        bus_free = self._bus_free
        now = engine.now
        seq = engine._seq
        engine._seq = seq + 1
        engine._push(
            (bus_free if bus_free > now else now, seq, self._service, _NO_ARG)
        )

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        """One-shot callback fired the next time any queue entry drains."""
        self._space_waiters.append(callback)

    def arm_faults(self, site) -> None:
        """Attach a :class:`~repro.faults.inject.DramFaultSite`."""
        self._faults = site

    @property
    def fault_armed(self) -> bool:
        """True when a DRAM fault site may flip this channel's reads."""
        return self._faults is not None

    def start_command_log(self) -> list:
        """Record every implied DRAM command (PRE/ACT/RD/WR/REF) from now
        on, for replay through :class:`repro.dram.compliance.ProtocolChecker`.
        Returns the live log list."""
        from repro.dram.compliance import DramCommand  # noqa: F401

        self.command_log = []
        for bank in self.banks:
            bank.record_commands = True
        return self.command_log

    @property
    def queued(self) -> int:
        return len(self.read_q) + len(self.write_q)

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _service(self) -> None:
        self._service_scheduled = False
        read_q = self.read_q
        write_q = self.write_q
        if not (read_q or write_q):
            return
        engine = self.engine
        now = engine.now

        # Refresh first: if the refresh deadline has passed, stall the rank
        # for tRFC with every bank precharged.  The deadline is read
        # directly (one compare on the not-due path, which is every
        # service but one in ~7.8 us).  All overdue windows are consumed
        # in one dispatch: the pre-batch code chained one same-tick
        # service dispatch per window (each window's end lands before
        # ``now`` except possibly the last), so stats, command log, and
        # trace entries are reconstructed per window back-dated exactly
        # where those dispatches put them, and the skipped dispatches are
        # accounted as synthesized occurrences.  In eager periodic mode
        # the stream hands over one window at a time, reproducing the
        # dispatch-per-window census bit-for-bit.
        stream = self._refresh_stream
        if now >= stream.next_due:
            first, count = stream.take_due(now)
            tRFC = self._tRFC
            last_start = first + (count - 1) * self._tREFI
            last_end = last_start + tRFC
            log = self.command_log
            if log is not None:
                from repro.dram.compliance import DramCommand

                start = first
                for _ in range(count):
                    log.append(
                        DramCommand(start, "REF", -1, None, start + tRFC)
                    )
                    start += self._tREFI
            if self._tracer.enabled:
                self._tracer.complete_series(
                    "dram", "refresh", self.name, first, self._tREFI,
                    count, tRFC,
                )
            for bank in self.banks:
                bank.force_precharge(last_end)
            if last_end > self._bus_free:
                self._bus_free = last_end
            self.rank.refreshes += count
            self._refreshes_counter.value += count
            if count > 1:
                engine._synthesized += count - 1
            self._service_scheduled = True
            seq = engine._seq
            engine._seq = seq + 1
            engine._push(
                (max(now, self._bus_free), seq, self._service, _NO_ARG)
            )
            return

        # Queue choice: write-drain hysteresis, plus a starvation bound
        # (a write older than write_timeout forces a drain even below the
        # high watermark; FIFO append order makes the head the oldest),
        # else reads, else writes.
        params = self.params
        wq_len = len(write_q)
        draining = self._draining
        if draining and wq_len <= params.write_drain_lo:
            draining = self._draining = False
        if not draining and wq_len >= params.write_drain_hi:
            draining = self._draining = True
        if not draining and wq_len and (
            now - write_q[0].arrival >= params.write_timeout
        ):
            draining = self._draining = True
        if draining and wq_len:
            queue = write_q
        elif read_q:
            queue = read_q
        else:
            queue = write_q

        # Single-class common-case picks, inlined from _pick_request:
        # depth-1 pop and head row-hit cover most services, and neither
        # can emit a reorder event (index 0 picks never do).
        is_write_q = queue is write_q
        secure_count = self._wq_secure if is_write_q else self._rq_secure
        qlen = len(queue)
        if not 0 < secure_count < qlen:
            if qlen == 1:
                req = queue.pop()
            elif self.banks[(r0 := queue[0]).bank].open_row == r0.row:
                req = r0
                del queue[0]
            else:
                req = None
            if req is not None:
                indexes = self._wq_index if is_write_q else self._rq_index
                index = indexes[req.bank]
                bucket = index[req.row]
                if len(bucket) == 1:
                    del index[req.row]
                else:
                    bucket.remove(req)
                if req.traffic is TrafficClass.SECURE:
                    if is_write_q:
                        self._wq_secure -= 1
                    else:
                        self._rq_secure -= 1
            else:
                req = self._pick_request(queue)
        else:
            req = self._pick_request(queue)

        bank = self.banks[req.bank]
        bus_free = self._bus_free
        floor = bus_free if bus_free > now else now
        is_write = req.is_write
        if is_write and self._last_op is OpType.READ:
            floor += self._tRTW
        data_start, outcome = bank.commit(req, req.arrival, floor=floor)
        if self._close_page:
            bank.close_after_access()
        if self.command_log is not None:
            from repro.dram.compliance import DramCommand

            self.command_log.extend(
                DramCommand(t, kind, req.bank, row)
                for kind, t, row in bank.last_commands
            )
        tburst = self._tBURST
        finish = data_start + tburst

        self._bus_free = finish
        self._last_op = req.op
        self._busy_ticks += tburst

        latency = finish - req.arrival
        secure = req.traffic is TrafficClass.SECURE
        lat_kind, lat_cls, served = self._lat_by_req[
            (2 if is_write else 0) + (1 if secure else 0)
        ]
        # Inline of LatencyStat.record (x2) and Counter.add (x2): these
        # four updates run for every serviced request, and the call
        # overhead alone was measurable.  Latency is positive by
        # construction (finish > arrival), so the negative-value guard
        # is unnecessary here.
        lat_kind.count += 1
        lat_kind.total += latency
        bound = lat_kind.min
        if bound is None or latency < bound:
            lat_kind.min = latency
        bound = lat_kind.max
        if bound is None or latency > bound:
            lat_kind.max = latency
        lat_cls.count += 1
        lat_cls.total += latency
        bound = lat_cls.min
        if bound is None or latency < bound:
            lat_cls.min = latency
        bound = lat_cls.max
        if bound is None or latency > bound:
            lat_cls.max = latency
        self._row_counters[outcome].value += 1
        served.value += 1
        if self._tracer.enabled:
            self._tracer.complete(
                "dram", "write" if is_write else "read", self.name,
                data_start, tburst,
                {
                    "bank": req.bank,
                    "row": req.row,
                    "outcome": outcome,
                    "app": req.app_id,
                    "cls": req.traffic.value,
                    "lat": latency,
                },
            )
        # Inline of Engine.call_at / Engine.at: both times are >= now by
        # construction (data_start is floored at now, finish is later
        # still), so the past-schedule guards cannot fire.
        on_complete = req.on_complete
        if on_complete is not None:
            if self._faults is not None and not is_write:
                # Transient flip of this read's data burst: marks the
                # completion's owner (who MAC-verifies) before it fires.
                self._faults.maybe_flip(on_complete)
            seq = engine._seq
            engine._seq = seq + 1
            if on_complete.__class__ is CompletionGroup:
                # Counted down at service time: only the last member
                # serviced carries the group's callback.
                left = on_complete.remaining - 1
                on_complete.remaining = left
                on_complete = on_complete.callback if not left \
                    else ignore_completion
            entry = (finish, seq, on_complete, finish)
            ledger = engine._ledger
            if ledger is not None and on_complete is ignore_completion:
                # A no-op completion: booked at the seq its event would
                # have taken and counted as a synthesized occurrence.
                ledger.append(entry)
                engine._synthesized += 1
                if len(ledger) > engine._ledger_cap:
                    engine.prune_ledger()
            else:
                engine._push(entry)

        if self._space_waiters:
            self._wake_space_waiters()
        # Decide the next request when the bus frees so bursts can chain
        # back-to-back.
        if read_q or write_q:
            self._service_scheduled = True
            seq = engine._seq
            engine._seq = seq + 1
            engine._push((data_start, seq, self._service, _NO_ARG))

    def _pick_request(self, queue: List[MemRequest]) -> MemRequest:
        """Arbitrate traffic classes, then FR-FCFS within the class."""
        is_write_q = queue is self.write_q
        secure_count = self._wq_secure if is_write_q else self._rq_secure
        indexes = self._wq_index if is_write_q else self._rq_index
        qlen = len(queue)
        if 0 < secure_count < qlen:
            # Mixed traffic: the share policy decides the class, then the
            # windowed scan picks within the filtered candidates (the side
            # index spans both classes, so it does not apply here).  Both
            # classes are present by the count check, so the
            # first-appearance-ordered class list only depends on the
            # queue head's class.
            if queue[0].traffic is TrafficClass.SECURE:
                classes = [TrafficClass.SECURE, TrafficClass.NORMAL]
            else:
                classes = [TrafficClass.NORMAL, TrafficClass.SECURE]
            chosen_cls = self.share_policy.pick_class(classes)
            if self._tracer.enabled:
                self._tracer.instant(
                    "dram", "class_pick", self.name, self.engine.now,
                    {"cls": chosen_cls.value, "contenders": len(classes)},
                )
                candidates = [r for r in queue if r.traffic is chosen_cls]
                req = candidates[self._scan_pick(candidates)]
            else:
                # Tracing off: no reorder event can be emitted, so scan
                # the queue directly for the first in-class row hit
                # within the window instead of materializing the
                # candidate list (same decision as _scan_pick over it).
                banks = self.banks
                window = self._window
                first = None
                req = None
                examined = 0
                for r in queue:
                    if r.traffic is chosen_cls:
                        if banks[r.bank].open_row == r.row:
                            req = r
                            break
                        if first is None:
                            first = r
                        examined += 1
                        if examined >= window:
                            break
                if req is None:
                    req = first
            queue.remove(req)
        elif qlen == 1:
            # Depth-1 early-out: any scan returns index 0 and never
            # emits a reorder event.
            req = queue.pop()
        elif self.banks[(r0 := queue[0]).bank].open_row == r0.row:
            # Head row-hit early-out: the scan's first probe is index 0,
            # and in the indexed probe the head holds the global minimum
            # _enq_seq, so both pick it; index 0 never emits a reorder.
            req = r0
            del queue[0]
        elif qlen <= self._window:
            # Indexed first-ready probe: the whole queue is inside the
            # scan window, so the minimum-_enq_seq open-row bucket head
            # is exactly the scan's first hit (queue position order ==
            # _enq_seq order); no hit -> oldest (queue head).
            req = None
            best_seq = _NO_PICK
            for bank_idx, bank in enumerate(self.banks):
                row = bank.open_row
                if row is not None:
                    bucket = indexes[bank_idx].get(row)
                    if bucket:
                        head = bucket[0]
                        if head._enq_seq < best_seq:
                            best_seq = head._enq_seq
                            req = head
            if req is None:
                req = queue[0]
                del queue[0]
            elif self._tracer.enabled:
                i = queue.index(req)
                if i:
                    self._tracer.instant(
                        "dram", "frfcfs_reorder", self.name,
                        self.engine.now,
                        {"index": i, "bank": req.bank, "depth": qlen},
                    )
                del queue[i]
            else:
                queue.remove(req)
        else:
            # Queue deeper than the scan window: the bounded scan may
            # legitimately miss a hit the full index would see, so defer
            # to it for bit-identical decisions.
            req = queue[self._scan_pick(queue)]
            queue.remove(req)

        index = indexes[req.bank]
        bucket = index[req.row]
        if len(bucket) == 1:
            del index[req.row]
        else:
            bucket.remove(req)
        if req.traffic is TrafficClass.SECURE:
            if is_write_q:
                self._wq_secure -= 1
            else:
                self._rq_secure -= 1
        return req

    def _scan_pick(self, queue: List[MemRequest]) -> int:
        """Windowed first-ready scan: the first row hit among the oldest
        ``scheduler_window`` requests, else the oldest; an out-of-order
        pick emits a ``frfcfs_reorder`` trace event."""
        banks = self.banks
        qlen = len(queue)
        limit = qlen if qlen < self._window else self._window
        for i in range(limit):
            r = queue[i]
            if banks[r.bank].open_row == r.row:
                if i and self._tracer.enabled:
                    self._tracer.instant(
                        "dram", "frfcfs_reorder", self.name,
                        self.engine.now,
                        {"index": i, "bank": r.bank, "depth": qlen},
                    )
                return i
        return 0

    def _wake_space_waiters(self) -> None:
        if not self._space_waiters:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for callback in waiters:
            callback()

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of elapsed time the data bus carried bursts."""
        return self._busy_ticks / self.engine.now if self.engine.now else 0.0

    def row_hit_rate(self) -> float:
        hits = self.stats.counter("row_hit").value
        total = hits + self.stats.counter("row_closed").value + \
            self.stats.counter("row_conflict").value
        return hits / total if total else 0.0
