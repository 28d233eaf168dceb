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
booked in the engine's ledger instead of pushed when the engine allows
it (the entry ``Engine.book`` makes; DESIGN.md section 9a).

FR-FCFS indexing
----------------
Each queue (reads, writes) is two FIFO lists in ``_enq_seq`` order, one
per traffic class (:class:`_ClassQueue`), and each list keeps its own
per-bank ``{row: [requests...]}`` side index, maintained on enqueue and
dequeue.  A slot picks in one path.  When both classes wait, the share
policy picks the class (:meth:`SharePolicy.pick_between`, the older
head's class first); then the pick runs within that class's list alone:
depth-1 pop, head row hit, else an indexed probe of each bank's open row
-- the list's first row hit is the minimum ``_enq_seq`` over the bucket
heads -- instead of a rescan of the window.  List order equals
``_enq_seq`` order (appends are monotonic, removals preserve relative
order), so the probe selects exactly the request the windowed
first-ready scan over the class's requests (the reference
``FrFcfsScheduler``) would: the hit when its ``_enq_seq`` is at most
that of the list's ``window``-th request, else the head.  A class's list
is exactly the requests of that class in queue order, and the scan
counted only those against the window, so a contended pick is the same
decision as before, with the same traced index and depth.  The picked
request is always the head of its row bucket.

Statistics
----------
A serviced request updates one statistic: its (op, class) latency, e.g.
``secure_read_latency``.  Everything else is derived when read
(:attr:`Channel.stats`, :meth:`Channel.utilization`,
:meth:`Channel.row_hit_rate`): ``read_latency``/``write_latency`` merge
the two class latencies and their counts are ``reads_serviced``/
``writes_serviced``; ``row_hit``/``row_closed``/``row_conflict`` sum the
banks' own counts (:meth:`Bank.commit`); ``refreshes`` is the rank's
count; and the bus carried one ``tBURST`` per serviced request.  Sums
and merges of what was recorded are exactly what recording each value
everywhere would have left.

One service chain
-----------------
A channel has at most one pending ``_service`` event.  ``_service``
keeps ``_service_scheduled`` set while it wakes space waiters, so a
waiter that enqueues here joins the chain instead of kicking a second
one, and clears it only when nothing is left to serve.

Service runs
------------
Inside the untraced whole-run lazy loop (the engine's ledger is a
list), a slot whose next service would be the engine's next pop -- its
tick strictly before the queue head's, or the queue empty, once
cancelled entries due by then are dropped -- serves that slot in the
same dispatch instead of pushing it.  The service keeps the seq it
took, sets ``engine.now``, records the slot as the latest continued one
(``engine._slot``: the exit event if the slot stops or raises) and
counts one synthesized occurrence, as a booked completion does.  No
event could run between the two slots, so nothing can tell the run
from one dispatch per slot (DESIGN.md section 9a).  A stopped engine,
``step()`` (which a run with the ``engine`` trace category dispatches
through) and ``periodic="eager"`` push every service.

Lane groups
-----------
The sub-channels of a secure BOB channel receive identical request
streams while only the delegator's ORAM traffic reaches them: every
line of a bucket puts one block at the same bank, row and column on
each.  A :class:`LaneGroup` simulates such lockstep sub-channels
("lanes") once.  The delegator hands it one lane share per ORAM phase,
lane 0's blocks only (:meth:`LaneGroup.enqueue_phases`), so the lanes
mirror by construction and nothing is compared per phase.  The leader
(lane 0) queues, picks, commits and times each request, and its slot is
every lane's: in lane order each of the k lanes takes its completion's
seq, if any, then its next service's, if any, so the slot takes its
seqs as one progression of stride 1 or 2 in one ``engine._seq`` step.
A no-op completion is one ledger booking of all k lanes, any other is
pushed once per lane, the k - 1 follower dispatches are counted in the
census, and the followers' pending services are two ints (the first
seq and the stride), pushed only if the group wakes.  A plain channel
is the one-lane case of the same slot.  The followers' statistics are
the leader's objects while the group is live, so a slot costs the same
for 2 lanes as for 16; only their command-log copies and trace events
are written per lane, when a lane captures or the ``dram`` category is
traced.  The group splits for good (:meth:`LaneGroup.wake`) the moment
any other input reaches a lane (which could make the lanes differ), or
anything could observe one lane's dispatch at a time.  DESIGN.md
section 9a has the exactness argument.
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

_NORMAL = TrafficClass.NORMAL
_SECURE = TrafficClass.SECURE


class _ClassQueue:
    """One traffic class's requests in one queue, oldest first (module
    docstring, "FR-FCFS indexing"), with the per-bank row index, the
    ``(bank, row index)`` pairs the probe walks, and the one latency
    statistic a serviced request of this op and class records."""

    __slots__ = ("reqs", "index", "probe", "latency")

    def __init__(self, banks: List[Bank]) -> None:
        self.reqs: List[MemRequest] = []
        self.index: List[Dict[int, List[MemRequest]]] = [{} for _ in banks]
        self.probe = list(zip(banks, self.index))
        self.latency = None

    def add(self, req: MemRequest) -> None:
        """Append ``req`` (the youngest) and index it."""
        self.reqs.append(req)
        index = self.index[req.bank]
        bucket = index.get(req.row)
        if bucket is None:
            index[req.row] = [req]
        else:
            bucket.append(req)


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
    ) -> None:
        self.engine = engine
        self.name = name
        self.timing = timing
        self.params = params
        #: Optional protocol-compliance log of ``(time, kind, bank, row,
        #: end)`` tuples; enabled via :meth:`start_command_log`.
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

        #: Each queue as its (NORMAL, SECURE) class lists, indexable by
        #: ``traffic is SECURE`` (module docstring, "FR-FCFS indexing").
        self._reads = (_ClassQueue(self.banks), _ClassQueue(self.banks))
        self._writes = (_ClassQueue(self.banks), _ClassQueue(self.banks))
        #: Requests queued per queue (both classes).
        self._rq_len = 0
        self._wq_len = 0
        self._enq_counter = 0
        self._draining = False
        self._bus_free = 0
        self._last_op: Optional[OpType] = None
        self._service_scheduled = False
        self._space_waiters: List[Callable[[], None]] = []

        self._bind_stats(StatSet(name))
        # Hot-path accelerators: cached params/timing ints.
        self._rq_depth = params.read_queue_depth
        self._wq_depth = params.write_queue_depth
        self._window = params.scheduler_window
        self._drain_hi = params.write_drain_hi
        self._drain_lo = params.write_drain_lo
        self._write_timeout = params.write_timeout
        self._tBURST = timing.tBURST
        self._tRTW = timing.tRTW
        self._tREFI = timing.tREFI
        self._tRFC = timing.tRFC
        #: The live :class:`LaneGroup` this channel is a lane of, if any.
        self._group: Optional[LaneGroup] = None
        #: Args of the ``frfcfs_reorder`` event the last traced pick
        #: emitted; a lane group's leader repeats it for its followers.
        self._reorder: Optional[dict] = None

    def _bind_stats(self, stats: StatSet) -> None:
        """Make ``stats`` this channel's statistics: each class queue
        records into its (op, class) latency, and the derived entries
        exist in the export order (module docstring, "Statistics")."""
        self._stats = stats
        for kind, queues in (("read", self._reads), ("write", self._writes)):
            stats.latency(f"{kind}_latency")
            for traffic, queue in zip((_NORMAL, _SECURE), queues):
                queue.latency = stats.latency(
                    f"{traffic.value}_{kind}_latency")
        for name in ("reads_serviced", "writes_serviced", "row_hit",
                     "row_closed", "row_conflict", "refreshes"):
            stats.counter(name)

    @property
    def stats(self) -> StatSet:
        """This channel's statistics, the derived ones brought up to date
        (a live lane group's followers read the leader's).  The same
        :class:`StatSet` object on every read."""
        lane = self if self._group is None else self._group.leader
        stats = lane._stats
        (normal_r, secure_r), (normal_w, secure_w) = lane._reads, lane._writes
        reads = stats.latency("read_latency")
        reads.set_merged(normal_r.latency, secure_r.latency)
        writes = stats.latency("write_latency")
        writes.set_merged(normal_w.latency, secure_w.latency)
        stats.counter("reads_serviced").value = reads.count
        stats.counter("writes_serviced").value = writes.count
        hits, closed, conflicts = lane._row_outcomes()
        stats.counter("row_hit").value = hits
        stats.counter("row_closed").value = closed
        stats.counter("row_conflict").value = conflicts
        stats.counter("refreshes").value = lane.rank.refreshes
        return stats

    def _row_outcomes(self):
        """``(hits, closed, conflicts)`` summed over the banks."""
        hits = closed = conflicts = 0
        for bank in self.banks:
            hits += bank.hits
            closed += bank.misses
            conflicts += bank.conflicts
        return hits, closed, conflicts

    # ------------------------------------------------------------------
    # Front-end interface
    # ------------------------------------------------------------------
    def can_accept(self, op: OpType) -> bool:
        """Queue-space check; front ends must test before ``enqueue``."""
        lane = self if self._group is None else self._group.leader
        if op is OpType.WRITE:
            return lane._wq_len < self._wq_depth
        return lane._rq_len < self._rq_depth

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
            if self._wq_len >= self._wq_depth:
                raise RuntimeError(f"{self.name}: write queue full")
            self._wq_len += 1
            queue = self._writes[req.traffic is _SECURE]
        else:
            if self._rq_len >= self._rq_depth:
                raise RuntimeError(f"{self.name}: read queue full")
            self._rq_len += 1
            queue = self._reads[req.traffic is _SECURE]
        queue.add(req)
        if not self._service_scheduled:
            self._kick()

    def free_slots(self, op: OpType) -> int:
        """Queue entries ``op`` requests may still take right now."""
        lane = self if self._group is None else self._group.leader
        if op is OpType.WRITE:
            return self._wq_depth - lane._wq_len
        return self._rq_depth - lane._rq_len

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
        it wakes a live lane group first: a group takes ORAM phases only
        as lane shares, through :meth:`LaneGroup.enqueue_phases`.
        """
        if self._group is not None:
            self._group.wake()
        self._enqueue_blocks(blocks, op, app_id, traffic, on_complete)

    def _enqueue_blocks(self, blocks, op, app_id, traffic, on_complete) -> None:
        """The body of :meth:`enqueue_phase`, also a lane group's hand-off."""
        is_write = op is OpType.WRITE
        if is_write:
            queues, queued, depth = self._writes, self._wq_len, self._wq_depth
        else:
            queues, queued, depth = self._reads, self._rq_len, self._rq_depth
        count = len(blocks)
        if queued + count > depth:
            raise RuntimeError(f"{self.name}: {op.value} queue full")
        class_queue = queues[traffic is _SECURE]
        queue = class_queue.reqs
        indexes = class_queue.index
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
        if is_write:
            self._wq_len = queued + count
        else:
            self._rq_len = queued + count
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
        on, as tuples of :class:`repro.dram.compliance.DramCommand`'s
        fields for its ``ProtocolChecker``.  Returns the live log list."""
        self.command_log = log = []
        if self._group is None:
            for bank in self.banks:
                bank.log = log
        else:
            self._group._route_logs()
        return log

    @property
    def queued(self) -> int:
        lane = self if self._group is None else self._group.leader
        return lane._rq_len + lane._wq_len

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _service(self) -> None:
        # ``_service_scheduled`` stays set until the chain ends (module
        # docstring, "One service chain"), one dispatch may serve a run
        # of slots ("Service runs"), and each slot is every lane's
        # ("Lane groups"; a plain channel is the one-lane case).
        engine = self.engine
        ledger = engine._ledger
        group = self._group
        if group is not None and ledger is None:
            # Outside the untraced whole-run lazy loop every lane
            # dispatches its own service (and bookings are off).
            group.wake()
            group = None
        # Invariant over a run: nothing a slot calls out to (a space
        # waiter, a fault site) reconfigures the channel, a fault site's
        # flip does not read the census, and a live group's slots call
        # out to nothing.
        heap = engine._queue
        cancelled = engine._cancelled_seqs
        tracer = self._tracer
        traced = tracer.enabled
        log = self.command_log
        faults = self._faults
        banks = self.banks
        rank = self.rank
        tBURST = self._tBURST
        now = engine.now
        if group is None:
            lanes = 1
            per_lane = False
        else:
            lanes = len(group.lanes)
            followers = lanes - 1
            # The followers' command-log copies and trace events.
            per_lane = traced or banks[0].log is not None
        # The run's census adds, written back on every exit (a stop or an
        # exception included) and before a space waiter runs.
        synthesized = 0
        try:
            while True:
                rq_len = self._rq_len
                wq_len = self._wq_len
                if not (rq_len or wq_len):
                    self._service_scheduled = False
                    return

                # Refresh first: if the refresh deadline has passed, stall
                # the rank for tRFC with every bank precharged.  The
                # deadline is read directly (one compare on the not-due
                # path, which is every slot but one in ~7.8 us).  One
                # window per slot: the window starts at its deadline,
                # back-dated if the channel sat idle past it, and the slot
                # behind it takes the next window if that one is due too.
                start = rank.refresh
                if now >= start:
                    end = start + self._tRFC
                    rank.refresh = start + self._tREFI
                    rank.refreshes += 1
                    if log is not None:
                        log.append((start, "REF", -1, None, end))
                    if traced:
                        tracer.complete("dram", "refresh", self.name, start,
                                        self._tRFC)
                    for bank in banks:
                        bank.force_precharge(end)
                    bus_free = self._bus_free
                    if end > bus_free:
                        self._bus_free = bus_free = end
                    after = bus_free if bus_free > now else now
                    # Each lane takes its next service's seq.
                    seq = base = engine._seq
                    stride = more = 1
                    if group is not None:
                        group.follow_refresh(start)
                else:
                    # Queue choice: write-drain hysteresis, plus a
                    # starvation bound (a write older than write_timeout
                    # forces a drain even below the high watermark), else
                    # reads, else writes.  The oldest write is the older
                    # class head: ``arrival`` never decreases with
                    # ``_enq_seq``.
                    draining = self._draining
                    if draining and wq_len <= self._drain_lo:
                        draining = self._draining = False
                    if not draining and wq_len >= self._drain_hi:
                        draining = self._draining = True
                    if not draining and wq_len:
                        normal, secure = self._writes
                        if normal.reqs:
                            oldest = normal.reqs[0].arrival
                            if secure.reqs and secure.reqs[0].arrival < oldest:
                                oldest = secure.reqs[0].arrival
                        else:
                            oldest = secure.reqs[0].arrival
                        if now - oldest >= self._write_timeout:
                            draining = self._draining = True
                    if (draining and wq_len) or not rq_len:
                        normal, secure = self._writes
                        self._wq_len = wq_len - 1
                    else:
                        normal, secure = self._reads
                        self._rq_len = rq_len - 1

                    # Class choice: a contended slot asks the share policy,
                    # the older head's class first; then one FR-FCFS pick
                    # within the class.
                    queue = normal
                    reqs = normal.reqs
                    if not reqs:
                        queue = secure
                        reqs = secure.reqs
                    elif secure.reqs:
                        if secure.reqs[0]._enq_seq < reqs[0]._enq_seq:
                            chosen = self.share_policy.pick_between(_SECURE,
                                                                    _NORMAL)
                        else:
                            chosen = self.share_policy.pick_between(_NORMAL,
                                                                    _SECURE)
                        if chosen is _SECURE:
                            queue = secure
                            reqs = secure.reqs
                        if traced:
                            tracer.instant(
                                "dram", "class_pick", self.name, now,
                                {"cls": chosen.value, "contenders": 2},
                            )
                    qlen = len(reqs)
                    if qlen == 1:
                        req = reqs.pop()
                    elif banks[(req := reqs[0]).bank].open_row == req.row:
                        # Head row hit: the scan's first probe, and the
                        # list's minimum _enq_seq; index 0 never reorders.
                        del reqs[0]
                    else:
                        # Indexed first-ready probe: the minimum-_enq_seq
                        # open-row bucket head is the list's first row hit.
                        # The windowed scan reaches it exactly when it sits
                        # among the oldest `window` requests, i.e. its
                        # _enq_seq is at most reqs[window - 1]'s; otherwise
                        # (or with no hit) the scan takes the oldest, the
                        # list head.
                        req = None
                        best_seq = _NO_PICK
                        for bank, index in queue.probe:
                            # (Rows are ints, so a closed bank's None finds
                            # nothing.)
                            if index:
                                bucket = index.get(bank.open_row)
                                if bucket:
                                    head = bucket[0]
                                    if head._enq_seq < best_seq:
                                        best_seq = head._enq_seq
                                        req = head
                        window = self._window
                        if req is None or (
                            qlen > window
                            and best_seq > reqs[window - 1]._enq_seq
                        ):
                            req = reqs[0]
                            del reqs[0]
                        elif traced:
                            # The head is no hit, so the pick is out of
                            # order.
                            i = reqs.index(req)
                            self._trace_reorder(i, req.bank, qlen)
                            del reqs[i]
                        else:
                            reqs.remove(req)
                    # The pick heads its row bucket (it is the oldest of its
                    # list or a bucket head).
                    index = queue.index[req.bank]
                    bucket = index[req.row]
                    if len(bucket) == 1:
                        del index[req.row]
                    else:
                        del bucket[0]

                    bank = banks[req.bank]
                    bus_free = self._bus_free
                    floor = bus_free if bus_free > now else now
                    is_write = req.is_write
                    if is_write and self._last_op is OpType.READ:
                        floor += self._tRTW
                    data_start, outcome = bank.commit(req, req.arrival, floor)
                    finish = data_start + tBURST
                    self._bus_free = finish
                    self._last_op = req.op

                    # The request's one statistic (module docstring,
                    # "Statistics"): an inline of LatencyStat.record, whose
                    # call overhead was measurable here.  Latency is
                    # positive by construction (finish > arrival), so the
                    # negative-value guard is unnecessary.
                    latency = finish - req.arrival
                    stat = queue.latency
                    stat.count += 1
                    stat.total += latency
                    bound = stat.min
                    if bound is None or latency < bound:
                        stat.min = latency
                    bound = stat.max
                    if bound is None or latency > bound:
                        stat.max = latency
                    if traced:
                        tracer.complete(
                            "dram", "write" if is_write else "read",
                            self.name, data_start, tBURST,
                            {
                                "bank": req.bank,
                                "row": req.row,
                                "outcome": outcome,
                                "app": req.app_id,
                                "cls": req.traffic.value,
                                "lat": latency,
                            },
                        )
                    if per_lane:
                        group._log_and_trace(req, bank, data_start, outcome,
                                             latency)

                    # Each lane takes its completion's seq, if it has one,
                    # then its next service's, if the queue is not empty:
                    # ``stride`` seqs per lane from ``base``, in lane order,
                    # taken in one step below.  Completions are pushed
                    # inline (``finish`` is after ``now``, so
                    # Engine.call_at's past-schedule guard cannot fire).
                    more = self._rq_len or self._wq_len
                    seq = base = engine._seq
                    on_complete = req.on_complete
                    if on_complete is None:
                        stride = 1 if more else 0
                    else:
                        stride = 2 if more else 1
                        if faults is not None and not is_write:
                            # Transient flip of this read's data burst:
                            # marks the completion's owner (who
                            # MAC-verifies) before it fires.
                            faults.maybe_flip(on_complete)
                        if on_complete.__class__ is CompletionGroup:
                            # Counted down at service time: only the last
                            # member serviced carries the group's callback.
                            left = on_complete.remaining - 1
                            on_complete.remaining = left
                            on_complete = on_complete.callback if not left \
                                else ignore_completion
                        if on_complete is not ignore_completion \
                                or ledger is None:
                            engine._push((finish, seq, on_complete, finish))
                            if group is not None:
                                for owed in range(seq + stride,
                                                  base + lanes * stride,
                                                  stride):
                                    engine._push((finish, owed, on_complete,
                                                  finish))
                        elif len(ledger) < engine._ledger_cap:
                            # Every lane's no-op completion: one booking at
                            # the seqs their events would have taken, as
                            # Engine.book would append it.
                            ledger.append((finish, seq, on_complete, lanes,
                                           stride))
                            synthesized += lanes
                        else:
                            # A booking that would overfill the ledger
                            # goes through Engine.book, which prunes.
                            engine.book(finish, seq, on_complete, lanes,
                                        stride)
                        seq += 1
                    if self._space_waiters:
                        # A plain channel's (a live group has none): the
                        # waiters take their seqs after the completion's
                        # and may queue here, so the next service's seq
                        # follows theirs.
                        engine._seq = seq
                        engine._synthesized += synthesized
                        synthesized = 0
                        self._wake_space_waiters()
                        seq = base = engine._seq
                        more = self._rq_len or self._wq_len
                        stride = 1 if more else 0
                    # Decide the next request when the bus frees so bursts
                    # can chain back-to-back.
                    after = data_start
                engine._seq = base + lanes * stride
                if group is not None:
                    # The followers' dispatches of this slot, and their
                    # next services (if any), right behind the leader's
                    # ``(after, seq)``: pushed only by a wake.
                    synthesized += followers
                    group._pending_time = after
                    group._pending_first = seq + stride
                    group._pending_stride = stride
                if not more:
                    self._service_scheduled = False
                    return
                # The next slot: served in this dispatch when its service
                # would be the engine's next pop, else pushed.
                if ledger is None or engine._stopped or (
                    heap and heap[0][0] <= after and not (
                        cancelled and heap[0][1] in cancelled
                        and engine._discard_cancelled(after)
                    )
                ):
                    engine._push((after, seq, self._service, _NO_ARG))
                    return
                engine.now = now = after
                engine._slot = (after, seq)
                synthesized += 1
        finally:
            if synthesized:
                engine._synthesized += synthesized

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
        """Fraction of elapsed time the data bus carried bursts: one
        ``tBURST`` per serviced request (a live lane group's followers
        share the leader's class queues, so they count its requests)."""
        now = self.engine.now
        if not now:
            return 0.0
        serviced = 0
        for queues in (self._reads, self._writes):
            for queue in queues:
                serviced += queue.latency.count
        return self._tBURST * serviced / now

    def row_hit_rate(self) -> float:
        """Row hits over serviced requests, from the banks' counts (a live
        lane group's followers read the leader's banks)."""
        lane = self if self._group is None else self._group.leader
        hits, closed, conflicts = lane._row_outcomes()
        total = hits + closed + conflicts
        return hits / total if total else 0.0


class LaneGroup:
    """Lockstep sub-channels simulated once (module docstring, "Lane groups").

    ``lanes`` are freshly built channels of one BOB channel, lane ``i``
    being its sub-channel ``i``, built alike (engine, timing, params,
    tracer).  Lane 0 leads: it holds the queues and runs
    every service.  The followers' class queues are the leader's
    (with the latency statistic each records into), and their
    ``free_slots``, ``can_accept``, ``queued``, ``stats`` and
    ``row_hit_rate()`` read the leader's queue lengths, statistics and
    banks, so they answer as their own would: fresh lanes start equal
    and stay equal while the group is live.  Each of the leader's slots
    is every lane's (:meth:`Channel._service`): it takes the followers'
    seqs with its own, books or pushes their completions with its own,
    counts their dispatches and records their pending services.  Per
    lane it writes only their command logs and trace events
    (:meth:`_log_and_trace`) and, for a refresh, their
    ``rank.refreshes`` (:meth:`follow_refresh`).  A follower holds no
    requests and schedules no service while the group is live;
    :meth:`wake` gives it its own state and its own copies of the
    statistics, under its own names.
    """

    def __init__(self, lanes: List[Channel]) -> None:
        if len(lanes) < 2:
            raise ValueError("a lane group needs at least two lanes")
        leader = lanes[0]
        for lane in lanes:
            if (lane.engine is not leader.engine
                    or lane.timing != leader.timing
                    or lane.params != leader.params
                    or lane._tracer is not leader._tracer):
                raise ValueError(f"{lane.name}: lanes must be built alike")
            if (lane._enq_counter or lane._group is not None
                    or lane._faults is not None or lane._space_waiters):
                raise ValueError(f"{lane.name}: lanes must be fresh")
        self.lanes = list(lanes)
        self.leader = leader
        self.followers = self.lanes[1:]
        #: The followers' pending services, valid while the leader's is
        #: scheduled: at ``_pending_time``, follower ``i`` (from 1) at seq
        #: ``_pending_first + (i - 1) * _pending_stride``, taken right
        #: behind the leader's; pushed only if the group wakes.
        self._pending_time = 0
        self._pending_first = 0
        self._pending_stride = 1
        for lane in self.lanes:
            lane._group = self
        self._route_logs()
        for lane in self.followers:
            # Fresh lanes are equal, and stay equal while the group is
            # live: share the leader's class queues until wake().
            lane._reads = leader._reads
            lane._writes = leader._writes
        leader.engine._lane_groups.append(self)

    def _route_logs(self) -> None:
        """Point the leader's banks, which commit for every lane, at the
        first capturing lane's log (:meth:`_log_and_trace` copies to the
        rest)."""
        log = next((lane.command_log for lane in self.lanes
                    if lane.command_log is not None), None)
        for bank in self.leader.banks:
            bank.log = log

    # ------------------------------------------------------------------
    # Hand-off
    # ------------------------------------------------------------------
    def enqueue_phases(self, blocks, op: OpType, app_id: int,
                       traffic: TrafficClass, on_complete) -> None:
        """Queue one ORAM phase's lane share: lane 0's ``blocks``, which
        every lane mirrors.

        The caller (the secure delegator) guarantees the mirror by
        construction: each block stands for one block at the same
        ``bank``, ``row`` and ``col`` on every lane, in the same order;
        ``on_complete`` stands for one completion of the same kind per
        lane (a :class:`CompletionGroup` of ``len(blocks)``, or a
        callable per block); and ``traffic`` is ``SECURE``, a single
        class, so no lane consults its share policy (which sub-channels
        may share).  The leader queues one request per block, and every
        follower that would have kicked its service takes its kick seq,
        in lane order.  Like :meth:`Channel.enqueue_phase`, the caller
        sizes ``blocks`` to :meth:`Channel.free_slots`.
        """
        leader = self.leader
        kick = bool(blocks) and not leader._service_scheduled
        leader._enqueue_blocks(blocks, op, app_id, traffic, on_complete)
        if kick:
            # The followers' kicks, right behind the leader's.
            engine = leader.engine
            seq = engine._seq
            engine._seq = seq + len(self.followers)
            self._pending_time = max(leader._bus_free, engine.now)
            self._pending_first = seq
            self._pending_stride = 1

    # ------------------------------------------------------------------
    # The followers' per-lane writes of a slot
    # ------------------------------------------------------------------
    def _log_and_trace(self, req: MemRequest, bank: Bank, data_start: int,
                       outcome: str, latency: int) -> None:
        """The followers' command-log entries (those the leader's ``bank``
        just logged, shared) and trace events of a slot; the slot calls
        this only when a lane captures or the ``dram`` category is on."""
        leader = self.leader
        tracer = leader._tracer
        traced = tracer.enabled
        if traced:
            reorder = leader._reorder
            leader._reorder = None
            tburst = leader._tBURST
            burst = "write" if req.is_write else "read"
        source = bank.log
        if source is not None:
            # The slot's entries: its CAS, behind an ACT unless the row
            # hit, behind a PRE on a conflict.
            entries = source[-1 - (outcome != "hit") - (outcome == "conflict"):]
        for lane in self.followers:
            log = lane.command_log
            if log is not None and log is not source:
                log.extend(entries)
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

    def follow_refresh(self, start: int) -> None:
        """The followers' side of a refresh slot, the window from
        ``start``: each follower's ``rank.refreshes`` (its ``refreshes``
        statistic), command log and trace event, written per lane."""
        leader = self.leader
        tRFC = leader._tRFC
        tracer = leader._tracer
        for lane in self.followers:
            lane.rank.refreshes += 1
            log = lane.command_log
            if log is not None:
                log.append((start, "REF", -1, None, start + tRFC))
            if tracer.enabled:
                tracer.complete("dram", "refresh", lane.name, start, tRFC)

    # ------------------------------------------------------------------
    # Wake
    # ------------------------------------------------------------------
    def wake(self) -> None:
        """Split for good into independent channels.

        Each follower gets a clone of the leader's state -- the queues
        (its own requests, with its own coordinates and its own
        :class:`CompletionGroup`\\ s at the leader's remaining counts),
        the FR-FCFS indexes, the queue lengths, the banks (with their row
        counts), the rank timers and refresh deadline, the bus and drain
        state, and a copy of the statistics under its own name -- and its
        pending service is pushed at its own seq.
        """
        leader = self.leader
        engine = leader.engine
        for lane in self.lanes:
            lane._group = None
        engine._lane_groups.remove(self)
        for bank in leader.banks:
            bank.log = leader.command_log
        scheduled = leader._service_scheduled
        seq = self._pending_first
        for subchannel, lane in enumerate(self.followers, 1):
            _clone_lane(leader, lane, subchannel)
            lane._service_scheduled = scheduled
            if scheduled:
                engine._push((self._pending_time, seq, lane._service, _NO_ARG))
                seq += self._pending_stride


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

    def twin_queues(queues):
        mine = (_ClassQueue(lane.banks), _ClassQueue(lane.banks))
        for queue, theirs in zip(mine, queues):
            for req in theirs.reqs:
                queue.add(twin(req))
        return mine

    lane._reads = twin_queues(leader._reads)
    lane._writes = twin_queues(leader._writes)
    lane._rq_len = leader._rq_len
    lane._wq_len = leader._wq_len
    lane._enq_counter = leader._enq_counter
    # ``leader.stats`` derives the leader's values before the copy.
    lane._bind_stats(leader.stats.copy(lane.name))
    lane._draining = leader._draining
    lane._bus_free = leader._bus_free
    lane._last_op = leader._last_op
    for mine, theirs in zip(lane.banks, leader.banks):
        mine.open_row = theirs.open_row
        mine._act_time = theirs._act_time
        mine._pre_ready = theirs._pre_ready
        mine._act_ready = theirs._act_ready
        mine.hits = theirs.hits
        mine.misses = theirs.misses
        mine.conflicts = theirs.conflicts
        mine.log = lane.command_log
    rank = lane.rank
    rank._acts = list(leader.rank._acts)
    rank._last_write_end = leader.rank._last_write_end
    rank.refresh = leader.rank.refresh
