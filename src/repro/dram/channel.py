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
it (``Engine.book``; DESIGN.md section 9a).

FR-FCFS indexing
----------------
Each queue keeps a per-bank ``{row: [requests...]}`` side index, maintained
on enqueue/dequeue.  A pick then probes each bank's open row directly --
the queue's first row hit is the minimum ``_enq_seq`` over the bucket
heads -- instead of rescanning the queue window per service.  Queue
position order equals ``_enq_seq`` order (appends are monotonic, removals
preserve relative order), so the probe selects exactly the request the
windowed first-ready scan (``_scan_pick``) would: the hit when its
``_enq_seq`` is at most that of the window's last request, else the
head.  The scan remains only for traced mixed-traffic slots, where the
share policy filters candidates first.

One service chain
-----------------
A channel has at most one pending ``_service`` event.  ``_service``
keeps ``_service_scheduled`` set while it wakes space waiters, so a
waiter that enqueues here joins the chain instead of kicking a second
one, and clears it only when nothing is left to serve.

Lane groups
-----------
The sub-channels of a secure BOB channel receive identical request
streams while only the delegator's ORAM traffic reaches them: every
bucket puts one block at the same bank, row and column on each.  A
:class:`LaneGroup` simulates such lockstep sub-channels ("lanes") once:
the leader (lane 0) queues, picks, commits and times each request, and
then produces for every follower the seqs, completions, trace events
and census that the follower's own service would have produced.  The
followers' statistics are the leader's objects while the group is live,
and a slot's seqs and no-op completions are taken and booked in one
step, so a slot costs the same for 2 lanes as for 16.  The group splits
for good (:meth:`LaneGroup.wake`) the moment an input could make the
lanes differ, or anything could observe one lane's dispatch at a time.
DESIGN.md section 9a has the exactness argument.
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

        self._bind_stats(StatSet(name))
        self._busy_ticks = 0
        # Hot-path accelerators: cached params/timing ints, pre-bound stat
        # recorders (``_bind_stats``), and per-queue secure-class counters
        # (skips class scans when traffic is homogeneous).
        self._rq_depth = params.read_queue_depth
        self._wq_depth = params.write_queue_depth
        self._window = params.scheduler_window
        self._tBURST = timing.tBURST
        self._tRTW = timing.tRTW
        self._close_page = page_policy == "close"
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
        #: The live :class:`LaneGroup` this channel is a lane of, if any.
        self._group: Optional[LaneGroup] = None
        #: Args of the ``frfcfs_reorder`` event the last traced pick
        #: emitted; a lane group's leader repeats it for its followers.
        self._reorder: Optional[dict] = None

    def _bind_stats(self, stats: StatSet) -> None:
        """Make ``stats`` this channel's statistics and pre-bind the
        objects ``_service`` updates inline (avoiding per-request
        f-string keys, dict lookups and method calls)."""
        self.stats = stats
        #: Indexed ``2*is_write + is_secure`` -> (kind latency stat,
        #: class latency stat, serviced counter) objects.
        self._lat_by_req = []
        for is_write, kind in ((False, "read"), (True, "write")):
            for traffic in (TrafficClass.NORMAL, TrafficClass.SECURE):
                self._lat_by_req.append((
                    stats.latency(f"{kind}_latency"),
                    stats.latency(f"{traffic.value}_{kind}_latency"),
                    stats.counter(f"{kind}s_serviced"),
                ))
        self._row_counters = {
            outcome: stats.counter(f"row_{outcome}")
            for outcome in ("hit", "closed", "conflict")
        }
        self._refreshes_counter = stats.counter("refreshes")

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
        if self._group is not None:
            self._group.wake()
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
        :meth:`free_slots`; overfilling raises.  Like :meth:`enqueue`,
        it wakes a live lane group first: a group takes mirrored shares
        only through :meth:`LaneGroup.enqueue_phases`.
        """
        if self._group is not None:
            self._group.wake()
        self._enqueue_blocks(blocks, op, app_id, traffic, on_complete)

    def _enqueue_blocks(self, blocks, op, app_id, traffic, on_complete) -> None:
        """The body of :meth:`enqueue_phase`, also a lane group's hand-off."""
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
        if self._group is not None:
            # The first lane to drain would re-pump before the others
            # have serviced: from here on the lanes diverge.
            self._group.wake()
        self._space_waiters.append(callback)

    def arm_faults(self, site) -> None:
        """Attach a :class:`~repro.faults.inject.DramFaultSite`."""
        if self._group is not None:
            self._group.wake()
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
        if self._group is not None:
            # The leader's banks commit for every lane of a live group.
            for bank in self._group.leader.banks:
                bank.record_commands = True
        return self.command_log

    @property
    def queued(self) -> int:
        return len(self.read_q) + len(self.write_q)

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _service(self) -> None:
        # ``_service_scheduled`` stays set until the chain ends (see the
        # module docstring, "One service chain").
        group = self._group
        if group is not None and self.engine._ledger is None:
            # Outside the untraced whole-run lazy loop every lane
            # dispatches its own service (and bookings are off).
            group.wake()
            group = None
        read_q = self.read_q
        write_q = self.write_q
        if not (read_q or write_q):
            self._service_scheduled = False
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
            resume = max(now, self._bus_free)
            seq = engine._seq
            engine._seq = seq + 1
            engine._push((resume, seq, self._service, _NO_ARG))
            if group is not None:
                group.follow_refresh(first, count, resume)
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
            if engine._ledger is None or on_complete is not ignore_completion:
                engine._push((finish, seq, on_complete, finish))
            elif group is None:
                # A no-op completion: booked at the seq its event would
                # have taken and counted as a synthesized occurrence.
                engine.book(finish, seq, on_complete)
            # (A live group's follow() books every lane's at once.)

        if self._space_waiters:
            self._wake_space_waiters()
        # Decide the next request when the bus frees so bursts can chain
        # back-to-back.
        if read_q or write_q:
            seq = engine._seq
            engine._seq = seq + 1
            engine._push((data_start, seq, self._service, _NO_ARG))
        else:
            self._service_scheduled = False
        if group is not None:
            group.follow(req, bank, data_start, outcome, latency, on_complete)

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
        else:
            # Indexed first-ready probe: the minimum-_enq_seq open-row
            # bucket head is the queue's first row hit (queue position
            # order == _enq_seq order).  The windowed scan reaches it
            # exactly when it sits among the oldest `window` requests,
            # i.e. its _enq_seq is at most queue[window - 1]'s; otherwise
            # (or with no hit) the scan takes the oldest, the queue head.
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
            window = self._window
            if req is None or (
                qlen > window and best_seq > queue[window - 1]._enq_seq
            ):
                req = queue[0]
                del queue[0]
            elif self._tracer.enabled:
                i = queue.index(req)
                if i:
                    self._trace_reorder(i, req.bank, qlen)
                del queue[i]
            else:
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
                    self._trace_reorder(i, r.bank, qlen)
                return i
        return 0

    def _trace_reorder(self, index: int, bank: int, depth: int) -> None:
        """Emit a ``frfcfs_reorder`` event (an out-of-order pick)."""
        args = {"index": index, "bank": bank, "depth": depth}
        self._tracer.instant(
            "dram", "frfcfs_reorder", self.name, self.engine.now, args
        )
        self._reorder = args

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
        """Fraction of elapsed time the data bus carried bursts (a live
        lane group's bus time is the leader's)."""
        now = self.engine.now
        if not now:
            return 0.0
        owner = self if self._group is None else self._group.leader
        return owner._busy_ticks / now

    def row_hit_rate(self) -> float:
        hits = self.stats.counter("row_hit").value
        total = hits + self.stats.counter("row_closed").value + \
            self.stats.counter("row_conflict").value
        return hits / total if total else 0.0


class LaneGroup:
    """Lockstep sub-channels simulated once (module docstring, "Lane groups").

    ``lanes`` are freshly built channels of one BOB channel, lane ``i``
    being its sub-channel ``i``, built alike (engine, timing, params,
    page policy, tracer).  Lane 0 leads: it holds the queues and runs
    every service.  The followers' ``read_q``/``write_q`` are the
    leader's lists, so ``free_slots``, ``can_accept`` and ``queued``
    answer as their own would.  Their statistics are the leader's
    objects -- the ``StatSet`` with its counters and latencies, and the
    pre-bound ``_lat_by_req``, ``_row_counters`` and
    ``_refreshes_counter`` -- and ``utilization()`` reads the leader's
    bus time, so ``stats``, ``utilization()`` and ``row_hit_rate()``
    answer as their own would too: fresh lanes start equal and stay
    equal while the group is live.  The leader's services take the
    followers' seqs, book or push their completions, and write their
    ``rank.refreshes``, trace events and command logs
    (:meth:`follow`).  A follower holds no requests and schedules no
    service while the group is live; :meth:`wake` gives it its own state
    and its own copies of the statistics, under its own names.
    """

    def __init__(self, lanes: List[Channel]) -> None:
        if len(lanes) < 2:
            raise ValueError("a lane group needs at least two lanes")
        leader = lanes[0]
        for lane in lanes:
            if (lane.engine is not leader.engine
                    or lane.timing != leader.timing
                    or lane.params != leader.params
                    or lane.page_policy != leader.page_policy
                    or lane._tracer is not leader._tracer):
                raise ValueError(f"{lane.name}: lanes must be built alike")
            if (lane._enq_counter or lane._group is not None
                    or lane._faults is not None or lane._space_waiters):
                raise ValueError(f"{lane.name}: lanes must be fresh")
        self.lanes = list(lanes)
        self.leader = leader
        self.followers = self.lanes[1:]
        #: Seqs of the followers' pending services, taken right behind
        #: the leader's and valid while it is scheduled; pushed (at
        #: ``_pending_time``) only if the group wakes.
        self._pending: range = range(0)
        self._pending_time = 0
        for lane in self.lanes:
            lane._group = self
        if any(lane.command_log is not None for lane in self.lanes):
            # The leader's banks commit for every lane.
            for bank in leader.banks:
                bank.record_commands = True
        for lane in self.followers:
            lane.read_q = leader.read_q
            lane.write_q = leader.write_q
            # Fresh lanes' statistics are equal, and stay equal while the
            # group is live: share the leader's objects until wake().
            lane._bind_stats(leader.stats)
        leader.engine._lane_groups.append(self)

    # ------------------------------------------------------------------
    # Hand-off
    # ------------------------------------------------------------------
    def enqueue_phases(self, shares, op: OpType, app_id: int,
                       traffic: TrafficClass, completions) -> bool:
        """Queue a phase's mirrored shares, ``shares[i]`` for lane ``i``.

        The shares mirror when they have equal lengths and equal
        ``bank``, ``row`` and ``col`` at each position, the traffic is
        ``SECURE`` (a single class, so no lane consults its share policy,
        which sub-channels may share), and ``completions`` are one
        callable or :class:`CompletionGroup`\\ s with one callback and
        count.  Then the leader queues one request per block and every
        lane that would have kicked its service takes its kick seq, in
        lane order.  Otherwise the group wakes, nothing is queued, and
        the call returns False: the caller issues one
        :meth:`Channel.enqueue_phase` per lane.
        """
        if not _mirrored(shares, traffic, completions):
            self.wake()
            return False
        leader = self.leader
        kick = bool(shares[0]) and not leader._service_scheduled
        leader._enqueue_blocks(shares[0], op, app_id, traffic, completions[0])
        if kick:
            # The followers' kicks, right behind the leader's.
            engine = leader.engine
            seq = engine._seq
            engine._seq = seq + len(self.followers)
            self._pending = range(seq, engine._seq)
            self._pending_time = max(leader._bus_free, engine.now)
        return True

    # ------------------------------------------------------------------
    # The followers' side of one group service
    # ------------------------------------------------------------------
    def follow(self, req: MemRequest, bank: Bank, data_start: int,
               outcome: str, latency: int, on_complete) -> None:
        """The followers' side of the slot the leader just served.

        Their statistics are the leader's objects, already updated.  In
        lane order, each follower takes its completion's seq (if
        ``on_complete`` is not ``None``), then its next service's (if the
        leader chained one), as the leader just did: so the slot's seqs,
        the leader's first, form one arithmetic progression, and the
        followers' are taken in one step.  A no-op completion is one
        booking (:meth:`Engine.book`) for every lane, the leader's
        included; any other is pushed once per follower.  Command logs
        and (traced) the leader's ``frfcfs_reorder``, if any, then the
        burst are written per lane.  ``bank`` is the leader's committed
        bank; its ``last_commands`` are every lane's.
        """
        leader = self.leader
        engine = leader.engine
        followers = self.followers
        n = len(followers)
        # The followers' dispatches of this slot.
        engine._synthesized += n
        if bank.record_commands or leader._tracer.enabled:
            self._log_and_trace(req, bank, data_start, outcome, latency)
        stride = (on_complete is not None) + leader._service_scheduled
        seq = engine._seq
        end = seq + n * stride
        engine._seq = end
        if on_complete is not None:
            finish = data_start + leader._tBURST
            if on_complete is ignore_completion:
                # The leader's completion seq is one stride back.
                engine.book(finish, seq - stride, on_complete, n + 1, stride)
            else:
                push = engine._push
                for owed in range(seq, end, stride):
                    push((finish, owed, on_complete, finish))
            seq += 1
        if leader._service_scheduled:
            self._pending = range(seq, end, stride)
            self._pending_time = data_start

    def _log_and_trace(self, req: MemRequest, bank: Bank, data_start: int,
                       outcome: str, latency: int) -> None:
        """The followers' command-log entries and trace events of a slot."""
        leader = self.leader
        tracer = leader._tracer
        traced = tracer.enabled
        if traced:
            reorder = leader._reorder
            leader._reorder = None
            tburst = leader._tBURST
            burst = "write" if req.is_write else "read"
        for lane in self.followers:
            if lane.command_log is not None:
                from repro.dram.compliance import DramCommand

                lane.command_log.extend(
                    DramCommand(t, kind, req.bank, row)
                    for kind, t, row in bank.last_commands
                )
            if traced:
                if reorder is not None:
                    tracer.instant("dram", "frfcfs_reorder", lane.name,
                                   leader.engine.now, dict(reorder))
                tracer.complete(
                    "dram", burst, lane.name, data_start, tburst,
                    {
                        "bank": req.bank,
                        "row": req.row,
                        "outcome": outcome,
                        "app": req.app_id,
                        "cls": req.traffic.value,
                        "lat": latency,
                    },
                )

    def follow_refresh(self, first: int, count: int, resume: int) -> None:
        """The followers' side of a refresh service: ``count`` windows
        from ``first`` each, then the next service at ``resume``.  The
        refresh counter is shared; ``rank.refreshes``, command logs and
        trace events stay per lane."""
        leader = self.leader
        engine = leader.engine
        followers = self.followers
        n = len(followers)
        # Each follower's dispatch, plus its count - 1 batched windows.
        engine._synthesized += n * count
        tREFI = leader._tREFI
        tRFC = leader._tRFC
        tracer = leader._tracer
        for lane in followers:
            lane.rank.refreshes += count
            log = lane.command_log
            if log is not None:
                from repro.dram.compliance import DramCommand

                start = first
                for _ in range(count):
                    log.append(DramCommand(start, "REF", -1, None,
                                           start + tRFC))
                    start += tREFI
            if tracer.enabled:
                tracer.complete_series("dram", "refresh", lane.name, first,
                                       tREFI, count, tRFC)
        seq = engine._seq
        engine._seq = seq + n
        self._pending = range(seq, seq + n)
        self._pending_time = resume

    # ------------------------------------------------------------------
    # Wake
    # ------------------------------------------------------------------
    def wake(self) -> None:
        """Split for good into independent channels.

        Each follower gets a clone of the leader's state -- the queues
        (its own requests, with its own coordinates and its own
        :class:`CompletionGroup`\\ s at the leader's remaining counts),
        the FR-FCFS indexes, the banks, the rank timers and refresh
        stream, the bus and drain state, and a copy of the statistics
        and bus time under its own name -- and its pending service is
        pushed at its own seq.
        """
        leader = self.leader
        engine = leader.engine
        for lane in self.lanes:
            lane._group = None
        engine._lane_groups.remove(self)
        for bank in leader.banks:
            bank.record_commands = leader.command_log is not None
        scheduled = leader._service_scheduled
        for subchannel, lane in enumerate(self.followers, 1):
            _clone_lane(leader, lane, subchannel)
            lane._service_scheduled = scheduled
            if scheduled:
                engine._push((self._pending_time, self._pending[subchannel - 1],
                              lane._service, _NO_ARG))


def _mirrored(shares, traffic: TrafficClass, completions) -> bool:
    """Whether per-lane phase shares mirror (:meth:`LaneGroup.enqueue_phases`)."""
    if traffic is not TrafficClass.SECURE:
        return False
    size = len(shares[0])
    first = completions[0]
    grouped = first.__class__ is CompletionGroup
    for blocks, done in zip(shares, completions):
        if len(blocks) != size:
            return False
        if grouped:
            if (done.__class__ is not CompletionGroup
                    or done.callback is not first.callback
                    or done.remaining != first.remaining):
                return False
        elif done is not first:
            return False
    for column in zip(*shares):
        lead = column[0]
        bank = lead.bank
        row = lead.row
        col = lead.col
        for block in column:
            if block.bank != bank or block.row != row or block.col != col:
                return False
    return True


def _clone_lane(leader: Channel, lane: Channel, subchannel: int) -> None:
    """Give ``lane`` (sub-channel ``subchannel``) the leader's state."""
    twins: Dict[CompletionGroup, CompletionGroup] = {}

    def twin(req: MemRequest) -> MemRequest:
        done = req.on_complete
        if done.__class__ is CompletionGroup:
            copy = twins.get(done)
            if copy is None:
                copy = twins[done] = CompletionGroup(done.remaining,
                                                     done.callback)
            done = copy
        clone = MemRequest(req.op, req.channel, subchannel, req.bank,
                           req.row, req.col, req.app_id, req.traffic,
                           req.arrival, done)
        clone._enq_seq = req._enq_seq
        return clone

    lane.read_q = [twin(req) for req in leader.read_q]
    lane.write_q = [twin(req) for req in leader.write_q]
    for queue, indexes in ((lane.read_q, lane._rq_index),
                           (lane.write_q, lane._wq_index)):
        for req in queue:
            bucket = indexes[req.bank].get(req.row)
            if bucket is None:
                indexes[req.bank][req.row] = [req]
            else:
                bucket.append(req)
    lane._enq_counter = leader._enq_counter
    lane._bind_stats(leader.stats.copy(lane.name))
    lane._busy_ticks = leader._busy_ticks
    lane._rq_secure = leader._rq_secure
    lane._wq_secure = leader._wq_secure
    lane._draining = leader._draining
    lane._bus_free = leader._bus_free
    lane._last_op = leader._last_op
    recording = lane.command_log is not None
    for mine, theirs in zip(lane.banks, leader.banks):
        mine.open_row = theirs.open_row
        mine._act_time = theirs._act_time
        mine._pre_ready = theirs._pre_ready
        mine._act_ready = theirs._act_ready
        mine.hits = theirs.hits
        mine.misses = theirs.misses
        mine.conflicts = theirs.conflicts
        mine.record_commands = recording
    rank = lane.rank
    rank._acts = list(leader.rank._acts)
    rank._last_write_end = leader.rank._last_write_end
    rank.refresh.next_due = leader.rank.refresh.next_due
    rank.refresh.occurrences = leader.rank.refresh.occurrences
