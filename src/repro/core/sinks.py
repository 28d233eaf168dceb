"""Block sinks: where ORAM path traffic lands.

* :class:`DirectChannelSink` -- the on-chip Path ORAM baseline: block
  accesses enqueue straight into the processor's four parallel channels
  (tagged ``SECURE`` so the bandwidth-preallocation scheduler can fence
  them from NS traffic).
* :class:`BobChannelSink` -- the failover engine under the BOB
  architecture: block accesses cross the serial links as ordinary
  traffic, one packet per block.
* The D-ORAM delegator is itself the sink of the trees it hosts
  (:class:`repro.core.delegator.SecureDelegator`), because local
  sub-channel traffic and remote split-tree messages need its link
  plumbing.

The direct and delegator sinks issue a phase with :func:`split_phase`
and :func:`issue_split`: the phase's channel-local placements are
grouped by target channel, each target takes the prefix of its blocks
that fits its free queue slots -- what a per-block
``can_accept``/``enqueue`` loop accepts, since nothing is serviced while
the loop runs -- and each target then gets one
:meth:`~repro.dram.channel.Channel.enqueue_phase` call.  Targets are
issued in order of first appearance, so their service kicks take the
same engine sequence numbers the per-block loop gave them.  A live lane
group's sub-channels never get here with mirrored shares: the delegator
hands such a group one lane share per phase
(:meth:`repro.core.delegator.SecureDelegator.issue_phase`), so a phase
that reaches a grouped sub-channel through :func:`issue_split` wakes the
group.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from repro.bob.channel import BobChannel
from repro.core.recovery import GuardedRead
from repro.dram.channel import Channel
from repro.dram.commands import (
    CompletionGroup,
    MemRequest,
    OpType,
    TrafficClass,
)
from repro.oram.controller import BlockSink
from repro.oram.layout import BlockPlacement


def split_phase(
    placements: List[BlockPlacement],
    op: OpType,
    channel_for: Callable[[Tuple[int, int]], Channel],
) -> Tuple[List[Tuple[Channel, List[BlockPlacement]]],
           List[BlockPlacement], List[BlockPlacement]]:
    """Split a phase's placements into ``(targets, stalled, remote)``.

    ``targets`` pairs each local target's channel (``channel_for(key)``
    of its ``placement.target`` key, looked up once) with the prefix of
    its blocks that fits the channel's free ``op`` slots, in order of
    first appearance.  ``stalled`` holds the local placements that did
    not fit, ``remote`` the split-tree ones; both keep the given order.
    """
    groups: Dict[object, List[BlockPlacement]] = {}
    for placement in placements:
        key = placement.target
        blocks = groups.get(key)
        if blocks is None:
            groups[key] = [placement]
        else:
            blocks.append(placement)
    remote = groups.pop(None, [])
    targets = []
    taken = None
    for key, blocks in groups.items():
        channel = channel_for(key)
        free = channel.free_slots(op)
        if free < len(blocks):
            if taken is None:
                taken = {k: len(b) for k, b in groups.items()}
            taken[key] = free
            blocks = blocks[:free]
        targets.append((channel, blocks))
    stalled: List[BlockPlacement] = []
    if taken is not None:
        # Each target took its first blocks in the given order; what
        # stalled keeps that order across targets.
        for placement in placements:
            key = placement.target
            if key is not None:
                if taken[key]:
                    taken[key] -= 1
                else:
                    stalled.append(placement)
    return targets, stalled, remote


def issue_split(
    targets: List[Tuple[Channel, List[BlockPlacement]]],
    op: OpType,
    on_done: Callable[[int], None],
    app_id: int,
    share: bool,
    faults=None,
) -> int:
    """Queue each target's accepted blocks; returns the completions
    ``on_done`` is owed.

    With ``share`` (a READ issue that left nothing stalled) each
    channel's reads complete as one :class:`CompletionGroup`.  With
    ``faults`` armed, reads on a channel that carries a DRAM fault site
    are issued per block under :class:`GuardedRead`, which MAC-checks
    each block and re-issues a flipped one on its own; a channel without
    a site never flips a burst, so it needs no guard.
    """
    reading = op is OpType.READ
    secure = TrafficClass.SECURE
    one_each = reading and share  # one completion per channel
    owed = 0
    for channel, blocks in targets:
        if not blocks:
            continue
        if reading and faults is not None and channel.fault_armed:
            for p in blocks:
                guard = GuardedRead(on_done, faults)
                req = MemRequest(op, p.channel, p.subchannel, p.bank, p.row,
                                 p.col, app_id, secure, 0, guard)
                guard.reissue = (
                    lambda c=channel, r=req: enqueue_or_hold(c, r)
                )
                channel.enqueue(req)
            owed += len(blocks)
        elif one_each:
            channel.enqueue_phase(blocks, op, app_id, secure,
                                  CompletionGroup(len(blocks), on_done))
            owed += 1
        else:
            channel.enqueue_phase(blocks, op, app_id, secure, on_done)
            owed += len(blocks)
    return owed


def enqueue_or_hold(channel: Channel, req: MemRequest) -> None:
    """Enqueue ``req`` now, or as soon as ``channel`` frees a slot."""
    if channel.can_accept(req.op):
        channel.enqueue(req)
    else:
        channel.notify_on_space(lambda: enqueue_or_hold(channel, req))


def notify_once(
    targets: Iterable, callback: Callable[[], None]
) -> Callable[[], None]:
    """Register one space wake with every target; the first to fire
    runs ``callback``, the rest do nothing.

    Targets register in iteration order.  Returns the shared wrapper so
    a caller can add it to waiter lists of its own.
    """
    fired = False

    def once() -> None:
        nonlocal fired
        if not fired:
            fired = True
            callback()

    for target in targets:
        target.notify_on_space(once)
    return once


class DirectChannelSink(BlockSink):
    """Issues ORAM blocks into directly attached DRAM channels."""

    def __init__(self, channels: Dict[Tuple[int, int], Channel],
                 app_id: int, faults=None) -> None:
        self.channels = channels
        self.app_id = app_id
        #: Fault controller (``repro.faults``); reads on channels with a
        #: DRAM fault site are MAC-checked per block under it.
        self.faults = faults

    def issue_phase(
        self,
        placements: List[BlockPlacement],
        op: OpType,
        on_done: Callable[[int], None],
    ) -> Tuple[List[BlockPlacement], int]:
        targets, stalled, remote = split_phase(
            placements, op, self.channels.__getitem__
        )
        if remote:
            raise ValueError("direct-attached channels hold no split-tree "
                             "(remote) blocks")
        owed = issue_split(
            targets, op, on_done, self.app_id, not stalled, self.faults,
        )
        return stalled, owed

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        notify_once(self.channels.values(), callback)


class BobChannelSink(BlockSink):
    """Host-side block sink for failover under the BOB architecture.

    The fallback Path ORAM engine runs on the processor, so its path
    blocks cross the serial links as ordinary traffic, one
    :class:`MemRequest` per block (:meth:`BobChannel.enqueue`), tagged
    ``SECURE`` for the schedulers.
    Reads are MAC-verified at the host via :class:`GuardedRead` --
    failover must not give up the DRAM-flip protection.
    """

    def __init__(self, bobs: Dict[int, BobChannel], app_id: int,
                 faults=None) -> None:
        self.bobs = bobs
        self.app_id = app_id
        self.faults = faults

    def issue_phase(
        self,
        placements: List[BlockPlacement],
        op: OpType,
        on_done: Callable[[int], None],
    ) -> Tuple[List[BlockPlacement], int]:
        """Per-block issue: each block is its own link packet, and reads
        are MAC-checked (and re-issued) one by one."""
        stalled = []
        owed = 0
        for placement in placements:
            bob = self.bobs[placement.channel]
            if not bob.can_accept(op):
                stalled.append(placement)
                continue
            on_complete = on_done
            if self.faults is not None and op is OpType.READ:
                guard = GuardedRead(on_done, self.faults)
                guard.reissue = (
                    lambda b=bob, p=placement, g=guard: self._reissue(b, p, g)
                )
                on_complete = guard
            self._send(bob, op, placement, on_complete)
            owed += 1
        return stalled, owed

    def _send(self, bob: BobChannel, op: OpType, p: BlockPlacement,
              on_complete: Callable[[int], None]) -> None:
        bob.enqueue(MemRequest(op, p.channel, p.subchannel, p.bank, p.row,
                               p.col, self.app_id, TrafficClass.SECURE, 0,
                               on_complete))

    def _reissue(self, bob: BobChannel, placement: BlockPlacement,
                 guard: GuardedRead) -> None:
        if bob.can_accept(OpType.READ):
            self._send(bob, OpType.READ, placement, guard)
        else:
            bob.notify_on_space(
                lambda: self._reissue(bob, placement, guard)
            )

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        notify_once(self.bobs.values(), callback)
