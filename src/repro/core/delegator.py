"""The secure delegator (SD) and the access sequencer (Section III-B).

The SD lives next to the secure channel's simple controller.  Triggered by
an encrypted 72 B request frame from the processor (the CPU end is a
:class:`~repro.core.recovery.SecureLinkSession`, the only CPU<->SD path),
it runs the Path ORAM protocol against the untrusted sub-channels,
returns a 72 B response frame when the read phase completes, and
overlaps the write phase with whatever the processor does next.  A
request arriving during the write phase is buffered and serviced right
after it (the paper's timing-control rule).

With a split tree (D-ORAM+k) some path blocks live on normal channels.
The SD cannot reach them directly -- it emits explicit messages that the
main controllers forward (Section III-C): per remote block, a short read
packet up the secure link, a forwarded short read down the target normal
link, the 72 B data response back up the normal link and down the secure
link.  Writes ship the 72 B block the same way without a return trip.
These are the "extra messages" of Table I, and the delegator counts them
so the reproduction can check itself against that table.  Each block's
message chain is one :class:`_RemoteOp`, which also carries the chain's
end-to-end integrity check.

The delegator is the block sink of every tree it hosts: their
controllers hand it each phase (:meth:`SecureDelegator.issue_phase`).

Lane shares.  While the secure channel's sub-channels run as a live
:class:`~repro.dram.channel.LaneGroup` and a tree's layout mirrors across
them (its home targets are exactly the group's lanes, in lane order, and
``bucket_size`` is a multiple of their number), the delegator places
each path once, as a :class:`~repro.oram.layout.LaneShare` of lane 0's
blocks, and hands each phase's share to the group in one
:meth:`~repro.dram.channel.LaneGroup.enqueue_phases` call.  If the group
wakes while a share is still being issued (a stall's
``notify_on_space``, an NS enqueue, a fault arm, a service outside the
lazy loop), the rest of it is expanded into every lane's blocks and
issued per sub-channel.  Completions and the owed count are per lane
either way.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.bob.channel import BobChannel
from repro.core.config import PACKET_BYTES, SHORT_PACKET_BYTES
from repro.core.recovery import FaultRecoveryError, Frame
from repro.core.sinks import (
    enqueue_or_hold,
    issue_split,
    notify_once,
    split_phase,
)
from repro.dram.commands import (
    CompletionGroup,
    MemRequest,
    OpType,
    TrafficClass,
)
from repro.obs.tracer import NULL_TRACER
from repro.oram.controller import BlockSink, OramController
from repro.oram.layout import BlockPlacement, LaneShare, OramLayout
from repro.sim.engine import Engine, ns
from repro.sim.stats import StatSet


class OramSequencer:
    """Serializes ORAM accesses through the SD's single engine.

    Protocol rhythm (identical for the delegated and on-chip engines):
    read phase -> respond -> write phase -> (buffered request, if any).

    One SD may host several ORAM *trees* (one per S-App: the III-C
    motivation runs "two S-Apps and two NS-Apps"); each tree has its own
    :class:`~repro.oram.controller.OramController`, but the engine
    processes one access at a time across all of them, so requests are
    arbitrated FIFO here.
    """

    def __init__(self, controller: OramController) -> None:
        self.controller = controller
        self._buffered: Deque[Tuple[OramController, Optional[int],
                                    Callable[[int], None]]] = deque()
        self._active_respond: Optional[Callable[[int], None]] = None
        self._active_controller: Optional[OramController] = None

    @property
    def busy(self) -> bool:
        return (
            self._active_controller is not None
            or self._active_respond is not None
            or self.controller.busy
        )

    @property
    def pending(self) -> int:
        """Accesses waiting on the single engine: the buffered FIFO plus
        the one in service (the scenario sampler's queue-depth signal)."""
        return len(self._buffered) + (1 if self.busy else 0)

    def submit(
        self,
        block_id: Optional[int],
        respond: Callable[[int], None],
        controller: Optional[OramController] = None,
    ) -> None:
        """Queue one access; ``respond(t)`` fires when its read phase ends.

        ``controller`` selects which tree the access targets (defaults to
        the sequencer's primary tree).
        """
        controller = controller or self.controller
        if self.busy:
            self._buffered.append((controller, block_id, respond))
            return
        self._start(controller, block_id, respond)

    def _start(
        self,
        controller: OramController,
        block_id: Optional[int],
        respond: Callable[[int], None],
    ) -> None:
        self._active_respond = respond
        self._active_controller = controller
        controller.begin_read(block_id, self._read_done)

    def _read_done(self, time: int) -> None:
        respond = self._active_respond
        controller = self._active_controller
        self._active_respond = None
        controller.begin_write(self._write_done)
        if respond is not None:
            respond(time)

    def _write_done(self, _time: int) -> None:
        self._active_controller = None
        if self._buffered and not self.busy:
            controller, block_id, respond = self._buffered.popleft()
            self._start(controller, block_id, respond)


class _SdSession:
    """The SD's record of one session: the sequence numbers it has
    completed and is serving, for the retransmission protocol."""

    __slots__ = ("done_seq", "active_seq")

    def __init__(self) -> None:
        self.done_seq = 0
        self.active_seq = 0


class _SdResponder:
    """One request's SD-side lifecycle: submit, then respond.

    :meth:`start` runs once the processing delay has elapsed and queues
    the access on the sequencer; the call at the end of the read phase
    records the completion and ships the response frame up the link.
    """

    __slots__ = ("delegator", "session", "state", "seq", "block_id")

    def __init__(self, delegator: "SecureDelegator", session,
                 state: _SdSession, seq: int,
                 block_id: Optional[int]) -> None:
        self.delegator = delegator
        self.session = session
        self.state = state
        self.seq = seq
        self.block_id = block_id

    def start(self) -> None:
        """Processing delay elapsed: queue the access on the sequencer."""
        self.delegator.sequencer.submit(
            self.block_id, self, self.session.controller
        )

    def __call__(self, _time: int) -> None:
        """Read phase finished: cache completion, respond up the link."""
        state = self.state
        state.done_seq = self.seq
        state.active_seq = 0
        self.delegator._send_frame(
            Frame(Frame.RESP, self.seq, self.block_id, 0, self.session)
        )


class _RemoteOp:
    """One split-tree block's message chain (Section III-C), one object.

    Reads: short read up the secure link, forwarded down the target
    normal link, the DRAM read, the 72 B block up the normal link and
    down the secure link.  Writes: the 72 B block up the secure link and
    down the normal link, then the DRAM write.  The op is every hop's
    delivery callback and the DRAM completion, advancing a stage each
    time.  A merged read (``merge_short_reads``) enters at the DRAM
    stage, after its :class:`_MergedRead` packet has crossed both links.

    End-to-end integrity: any hop may mark the op corrupt (a ``remote``
    link packet fault or a DRAM read flip), and the MAC check where the
    block is consumed re-runs the whole message sequence, bounded by the
    plan's ``remote_retries``.  Packet drops are not absorbable here --
    there is no per-hop ack to recover them -- so the injector counts
    them as uninjectable and delivers normally.
    """

    __slots__ = ("delegator", "bob", "placement", "op", "on_complete",
                 "stage", "corrupt", "attempts")

    def __init__(self, delegator: "SecureDelegator", bob: BobChannel,
                 placement: BlockPlacement, op: OpType,
                 on_complete: Callable[[int], None]) -> None:
        self.delegator = delegator
        self.bob = bob
        self.placement = placement
        self.op = op
        self.on_complete = on_complete
        self.stage = 0
        self.corrupt = False
        self.attempts = 1

    def link_fault(self, kind: str) -> bool:
        if kind == "corrupt":
            self.corrupt = True
            return True
        return False

    def fault_mark_corrupt(self) -> bool:
        self.corrupt = True
        return True

    def _restart(self) -> None:
        delegator = self.delegator
        self.attempts += 1
        limit = delegator._faults.recovery.remote_retries
        if self.attempts > limit:
            raise FaultRecoveryError(
                f"remote {self.op.name.lower()} chain corrupted "
                f"{limit} times; retry bound exhausted"
            )
        self.corrupt = False
        self.stage = 0
        delegator._faults.count("remote_retries")
        delegator._faults.trace(
            "remote_retry", delegator.name,
            {"op": self.op.name.lower(), "attempt": self.attempts},
        )
        size = (SHORT_PACKET_BYTES if self.op is OpType.READ
                else PACKET_BYTES)
        delegator.secure_bob.send_up(size, self, tag="remote")

    def __call__(self, time: int) -> None:
        delegator = self.delegator
        stage = self.stage
        if self.op is OpType.READ:
            if stage == 0:
                # Short read arrived at the CPU: forward down the
                # target normal link.
                self.stage = 1
                self.bob.send_down(SHORT_PACKET_BYTES, self, tag="remote")
            elif stage == 1:
                self.stage = 2
                delegator._remote_dram(self)
            elif stage == 2:
                # DRAM read done: 72 B block back up the normal link.
                self.stage = 3
                self.bob.send_up(PACKET_BYTES, self, tag="remote")
            elif stage == 3:
                self.stage = 4
                delegator.secure_bob.send_down(
                    PACKET_BYTES, self, tag="remote"
                )
            else:
                # Block reached the SD: MAC check is the integrity
                # gate for the whole chain.
                if self.corrupt:
                    self._restart()
                    return
                delegator._remote_done(self.on_complete, time)
        else:
            if stage == 0:
                self.stage = 1
                self.bob.send_down(PACKET_BYTES, self, tag="remote")
            elif stage == 1:
                # Block reached the target controller: verified before
                # it is committed to the tree.
                if self.corrupt:
                    self._restart()
                    return
                self.stage = 2
                delegator._remote_dram(self)
            else:
                delegator._remote_done(self.on_complete, time)


class _MergedRead:
    """One coalesced short-read packet (``merge_short_reads``): up the
    secure link, down the target normal link, then each carried
    :class:`_RemoteOp` continues from its DRAM read.  A ``corrupt`` hop
    marks every carried chain, so each block's MAC check re-runs it;
    drops are not absorbable, as for :class:`_RemoteOp`."""

    __slots__ = ("delegator", "bob", "chains", "nbytes", "stage")

    def __init__(self, delegator: "SecureDelegator", bob: BobChannel,
                 chains: List[_RemoteOp]) -> None:
        self.delegator = delegator
        self.bob = bob
        self.chains = chains
        # Header + one extra 8 B address per additional block.
        self.nbytes = SHORT_PACKET_BYTES + 8 * (len(chains) - 1)
        self.stage = 0

    def link_fault(self, kind: str) -> bool:
        if kind == "corrupt":
            for chain in self.chains:
                chain.corrupt = True
            return True
        return False

    def __call__(self, _time: int) -> None:
        if self.stage == 0:
            # Reached the CPU: forward down the target normal link.
            self.stage = 1
            self.bob.send_down(self.nbytes, self, tag="remote")
            return
        for chain in self.chains:
            chain.stage = 2
            self.delegator._remote_dram(chain)


class SecureDelegator(BlockSink):
    """The on-board secure engine of D-ORAM, and its trees' block sink:
    local blocks go to the secure sub-channels, remote ones as messages."""

    #: Outstanding remote (cross-channel) block messages allowed at once.
    REMOTE_WINDOW = 16

    def __init__(
        self,
        engine: Engine,
        secure_bob: BobChannel,
        normal_bobs: Dict[int, BobChannel],
        process_ns: float = 5.0,
        app_id: int = -2,
        name: str = "sd",
        merge_short_reads: bool = False,
        tracer=None,
        faults=None,
    ) -> None:
        """``merge_short_reads`` enables the paper's footnote-1 future
        work: short read packets destined for the same normal channel
        within one ORAM access are coalesced into a single packet per
        hop (one address list instead of 4k separate headers), cutting
        the split-tree message count on both links.

        ``faults`` (a :class:`~repro.faults.inject.FaultController`)
        attaches a plan: its delegator site (if any) supplies stall
        windows and the crash point, and its DRAM sites make path reads
        MAC-checked per block.  The protocol is the same without one."""
        self.engine = engine
        self.secure_bob = secure_bob
        self.normal_bobs = normal_bobs
        self.process_ticks = ns(process_ns)
        self.app_id = app_id
        self.name = name
        self.stats = StatSet(name)
        self._tracer = (
            tracer if tracer is not None else NULL_TRACER
        ).category("sd")
        #: Set by the system builder on the first tree the SD hosts (the
        #: controller takes the delegator as its sink).
        self.sequencer: Optional[OramSequencer] = None
        self._remote_outstanding = 0
        self._space_waiters: List[Callable[[], None]] = []
        self.merge_short_reads = merge_short_reads
        #: Pending merged reads per normal channel, in issue order.
        self._merge_buffers: Dict[int, List[_RemoteOp]] = {}
        self._merge_flush_scheduled = False
        self._faults = faults
        self._sd_site = faults.sd_site() if faults is not None else None
        self._sessions: Dict[object, _SdSession] = {}
        self._stall_buffer: Deque = deque()
        self._stall_wake_scheduled = False
        #: ``layout -> whether it mirrors across the lane group``,
        #: decided once per layout (:meth:`path_placements`).
        self._mirroring: Dict[OramLayout, bool] = {}

    @property
    def backlog(self) -> int:
        """Accesses queued behind this SD's single ORAM engine."""
        sequencer = self.sequencer
        return sequencer.pending if sequencer is not None else 0

    # ------------------------------------------------------------------
    # Request entry (frames from the processor)
    # ------------------------------------------------------------------
    def receive_frame(self, frame: Frame) -> None:
        """Down-link delivery target for the session's request frames."""
        if self.sequencer is None:
            raise RuntimeError("delegator not wired to a controller")
        site = self._sd_site
        if site is not None:
            verdict = site.blocked(self.engine.now)
            if verdict is not None:
                kind, until = verdict
                if kind == "crash":
                    # A dead SD: the frame vanishes; the CPU deadline
                    # and watchdog take it from here.
                    self._faults.count("sd_crash_drops")
                    self._faults.trace("sd_crash_drop", self.name, {})
                    return
                # Stalled: intake freezes; buffered frames drain in
                # arrival order when the window closes.
                self._faults.count("sd_stall_holds")
                self._stall_buffer.append(frame)
                if not self._stall_wake_scheduled:
                    self._stall_wake_scheduled = True
                    self.engine.at(until, self._drain_stalled)
                return
        self._process_frame(frame)

    def _drain_stalled(self) -> None:
        self._stall_wake_scheduled = False
        buffered, self._stall_buffer = self._stall_buffer, deque()
        for frame in buffered:
            # Re-check: the next window (or the crash) may already rule.
            self.receive_frame(frame)

    def _process_frame(self, frame: Frame) -> None:
        session = frame.session
        state = self._sessions.get(session)
        if state is None:
            state = self._sessions[session] = _SdSession()
        if frame.corrupt:
            # MAC verification failed: answer with a NAK after the
            # usual decrypt/verify processing delay.
            self._faults.count("sd_mac_failures")
            self._faults.trace("sd_mac_fail", self.name,
                               {"seq": frame.seq})
            self.engine.after(
                self.process_ticks,
                lambda: self._send_frame(
                    Frame(Frame.NAK, 0, None, 0, session)
                ),
            )
            return
        if frame.kind != Frame.REQ:
            self._faults.count("sd_unexpected_frames")
            return
        seq = frame.seq
        if seq == state.done_seq:
            # Retransmission of a completed request (our response was
            # lost or garbled): replay the cached response, don't re-run
            # the ORAM access.
            self._faults.count("sd_duplicate_requests")
            self.engine.after(
                self.process_ticks,
                lambda: self._send_frame(
                    Frame(Frame.RESP, seq, frame.block_id, 0, session)
                ),
            )
            return
        if seq == state.active_seq:
            # Retransmission of the request we are already serving; the
            # response under way will answer it.
            self._faults.count("sd_duplicate_inflight")
            return
        state.active_seq = seq
        self.stats.counter("requests").add()
        if self._tracer.enabled:
            self._tracer.instant(
                "sd", "request", self.name, self.engine.now,
                {
                    "real": int(frame.block_id is not None),
                    "queued": int(self.sequencer.busy),
                },
            )
        responder = _SdResponder(self, session, state, seq, frame.block_id)
        # Decrypt + authenticate + position-map consultation.
        self.engine.after(self.process_ticks, responder.start)

    def _send_frame(self, frame) -> None:
        """Ship one response/NAK frame up the secure link (if alive)."""
        if self._sd_site is not None and self._sd_site.crashed(self.engine.now):
            self._faults.count("sd_crash_drops")
            return
        self.secure_bob.send_up(
            PACKET_BYTES, frame.session._frame_arrived, arg=frame
        )

    # ------------------------------------------------------------------
    # Path traffic: local sub-channels, then split-tree messages
    # ------------------------------------------------------------------
    def path_placements(self, layout: OramLayout,
                        leaf: int) -> List[BlockPlacement]:
        """A :class:`LaneShare` of ``leaf``'s path while the secure
        sub-channels' lane group is live and ``layout`` mirrors across
        its lanes, else every block (module docstring, "Lane shares")."""
        group = self.secure_bob.subchannels[0]._group
        if group is not None:
            mirroring = self._mirroring.get(layout)
            if mirroring is None:
                # The group's lanes are the secure channel's sub-channels
                # (``build_bob_fabric``), lane i being sub-channel i.
                channel = self.secure_bob.channel_id
                mirroring = self._mirroring[layout] = (
                    layout.mirrors
                    and layout.home_targets
                    == [(channel, i) for i in range(len(group.lanes))]
                )
            if mirroring:
                return layout.lane_share(leaf)
        return layout.path_placements(leaf)

    def issue_phase(
        self,
        placements: List[BlockPlacement],
        op: OpType,
        on_done: Callable[[int], None],
    ) -> Tuple[List[BlockPlacement], int]:
        """Issue what fits of a phase; returns ``(stalled, owed)``.

        Local blocks go to the secure sub-channels: a lane share's in one
        call to their live group (:meth:`_issue_share`), anything else one
        ``enqueue_phase`` per sub-channel (:func:`split_phase`), after
        expanding a share whose group has woken.  Remote (split-tree)
        blocks are the deepest levels, so they follow every local one in
        path order; they are sent one message chain each, while the
        remote window has room.  The SD MAC-checks every path block it
        reads: a sub-channel that carries a DRAM fault site gets
        per-block :class:`GuardedRead` completions, which re-issue a
        flipped block while the read phase stays open.
        """
        subchannels = self.secure_bob.subchannels
        if placements.__class__ is LaneShare:
            group = subchannels[0]._group
            if group is not None:
                return self._issue_share(placements, group, op, on_done)
            placements = placements.expand()
        targets, stalled, remote = split_phase(
            placements, op, lambda key: subchannels[key[1]]
        )
        room = self.REMOTE_WINDOW - self._remote_outstanding
        owed = issue_split(
            targets, op, on_done, self.app_id,
            not stalled and len(remote) <= room, self._faults,
        )
        return stalled, owed + self._issue_remote(remote, op, on_done,
                                                  stalled)

    def _issue_share(
        self,
        share: LaneShare,
        group,
        op: OpType,
        on_done: Callable[[int], None],
    ) -> Tuple[LaneShare, int]:
        """Issue what fits of a lane share on its live lane group.

        Every lane has the leader's free slots, so each takes the same
        prefix of its blocks: the leader queues that prefix of the share
        (:meth:`~repro.dram.channel.LaneGroup.enqueue_phases`) and every
        lane mirrors it.  A READ issue that leaves nothing stalled owes
        one :class:`CompletionGroup` per lane, anything else one
        completion per block on every lane.  The stalled rest stays a
        share, so the next pump expands it if the group woke meanwhile.
        """
        local = share
        remote: List[BlockPlacement] = []
        if share.layout.split_k:
            local = [p for p in share if not p.remote]
            remote = [p for p in share if p.remote]
        free = group.leader.free_slots(op)
        stalled = LaneShare(share.layout, local[free:])
        taken = local[:free] if stalled else local
        owed = 0
        if taken:
            lanes = len(group.lanes)
            room = self.REMOTE_WINDOW - self._remote_outstanding
            if op is OpType.READ and not stalled and len(remote) <= room:
                done = CompletionGroup(len(taken), on_done)
                owed = lanes
            else:
                done = on_done
                owed = lanes * len(taken)
            group.enqueue_phases(taken, op, self.app_id,
                                 TrafficClass.SECURE, done)
        return stalled, owed + self._issue_remote(remote, op, on_done,
                                                  stalled)

    def _issue_remote(self, remote: List[BlockPlacement], op: OpType,
                      on_done: Callable[[int], None],
                      stalled: List[BlockPlacement]) -> int:
        """Send each remote block's message chain while the window has
        room, appending the rest to ``stalled``; returns the number
        sent."""
        sent = 0
        for placement in remote:
            if self.try_remote(placement, op, on_done):
                sent += 1
            else:
                stalled.append(placement)
        return sent

    # ------------------------------------------------------------------
    # Remote split-tree traffic (Section III-C)
    # ------------------------------------------------------------------
    def try_remote(
        self,
        placement: BlockPlacement,
        op: OpType,
        on_complete: Callable[[int], None],
    ) -> bool:
        if self._remote_outstanding >= self.REMOTE_WINDOW:
            return False
        bob = self.normal_bobs[placement.channel]
        self._remote_outstanding += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "sd",
                "remote_read" if op is OpType.READ else "remote_write",
                self.name, self.engine.now,
                {"ch": placement.channel, "bucket": placement.bucket},
            )
        chain = _RemoteOp(self, bob, placement, op, on_complete)
        if op is OpType.READ:
            self.stats.counter("remote_read_blocks").add()
            self.stats.counter(f"ch{placement.channel}_reads").add()
            if self.merge_short_reads:
                # Footnote-1 future work: coalesce this access's short
                # reads per target channel; flushed once the current
                # issue burst settles (same-tick event).
                self._merge_buffers.setdefault(
                    placement.channel, []
                ).append(chain)
                if not self._merge_flush_scheduled:
                    self._merge_flush_scheduled = True
                    self.engine.after(0, self._flush_merged)
                return True
            self.stats.counter("remote_short_reads").add()
            # SD -> CPU (short read, up the secure link) ...
            self.secure_bob.send_up(SHORT_PACKET_BYTES, chain, tag="remote")
        else:
            self.stats.counter("remote_writes").add()
            self.stats.counter(f"ch{placement.channel}_writes").add()
            # SD -> CPU (72 B write packet carrying the block) ...
            self.secure_bob.send_up(PACKET_BYTES, chain, tag="remote")
        return True

    def _flush_merged(self) -> None:
        """Ship one coalesced read packet per buffered normal channel."""
        self._merge_flush_scheduled = False
        buffers, self._merge_buffers = self._merge_buffers, {}
        for channel, chains in sorted(buffers.items()):
            packet = _MergedRead(self, self.normal_bobs[channel], chains)
            self.stats.counter("remote_short_reads").add()
            if self._tracer.enabled:
                self._tracer.instant(
                    "sd", "merged_read", self.name, self.engine.now,
                    {"ch": channel, "blocks": len(chains),
                     "bytes": packet.nbytes},
                )
            self.secure_bob.send_up(packet.nbytes, packet, tag="remote")

    def _remote_dram(self, chain: _RemoteOp) -> None:
        """Queue the chain's block access at the normal channel's
        sub-channel; the chain is the access's completion."""
        placement = chain.placement
        sub = chain.bob.subchannels[placement.subchannel]
        req = MemRequest(
            chain.op, placement.channel, placement.subchannel,
            placement.bank, placement.row, placement.col,
            self.app_id, TrafficClass.SECURE, 0, chain,
        )
        enqueue_or_hold(sub, req)

    def _remote_done(
        self, on_complete: Callable[[int], None], time: int
    ) -> None:
        self._remote_outstanding -= 1
        self._wake_waiters()
        on_complete(time)

    # ------------------------------------------------------------------
    def notify_on_space(self, callback: Callable[[], None]) -> None:
        """One-shot wake when local queues or the remote window free up."""
        self._space_waiters.append(
            notify_once(self.secure_bob.subchannels, callback)
        )

    def _wake_waiters(self) -> None:
        if not self._space_waiters:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for callback in waiters:
            callback()
