"""Lane shares: one placement per mirrored line while a lane group lives.

While the secure channel's sub-channels run as a live lane group and a
tree's layout mirrors across them, the delegator places each path once,
as a ``LaneShare`` of lane 0's blocks, and hands each phase's share to
the group in one call (``repro.core.delegator``, "Lane shares").  These
tests pin what that saves and where it must not apply; the lane-group
and shape-pin suites check that every output still equals the per-lane
(eager) oracle's.
"""

import pytest

from repro.core.sinks import BobChannelSink, split_phase
from repro.dram.channel import Channel, LaneGroup
from repro.dram.commands import MemRequest, OpType
from repro.oram.controller import OramController
from repro.oram.layout import BlockPlacement, LaneShare, OramLayout
from tests.dram.test_lane_groups import Rig

LEAF = 21


def _full_path(rig, leaf=LEAF):
    """Every block of ``leaf``'s path, placed by a fresh layout."""
    layout = rig.layout
    return OramLayout(layout.config, layout.home_targets).path_placements(leaf)


def _counting(monkeypatch, cls):
    """Count constructions of ``cls`` from here on."""
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def _controller(rig, sink, name="oram0"):
    return OramController(rig.engine, rig.layout.config, rig.layout, sink,
                          name=name)


def _coords(block, lane):
    return (lane, block.bank, block.row, block.col)


def test_live_group_places_and_queues_one_lane(monkeypatch):
    """One access on a live 4-lane group builds a quarter of the path's
    blocks as placements and queues its requests on the leader only."""
    rig = Rig("lazy", phases=0)
    full = _full_path(rig)
    placements = _counting(monkeypatch, BlockPlacement)
    requests = _counting(monkeypatch, MemRequest)
    done = []
    controller = _controller(rig, rig.sd)
    controller.begin_read(None, done.append)
    assert rig.live
    assert len(placements) * 4 == len(full)
    assert isinstance(controller._placements, LaneShare)
    leader = rig.lanes[0]
    queued = [req for queue in leader._reads for req in queue.reqs]
    assert queued == requests
    assert len(requests) * 4 == len(full)
    assert {req.subchannel for req in requests} == {0}
    for lane in rig.lanes[1:]:
        assert lane._reads is leader._reads
        assert lane.queued == len(requests)
    rig.engine.run()
    assert len(done) == 1
    for lane in rig.lanes:
        assert lane.stats.counter("reads_serviced").value == len(requests)


class _Unbounded:
    """A stand-in channel with room for any phase (for ``split_phase``)."""

    def __init__(self, key):
        self.key = key

    def free_slots(self, op):
        return 1 << 30


def test_stalled_share_expands_to_every_lanes_blocks(monkeypatch):
    """A read share that stalls mid-phase on 4-deep queues wakes the
    group (its pump's ``notify_on_space``); the rest of it is expanded,
    so every lane gets ``split_phase``'s blocks of the full path, in the
    same order, and the phase completes once."""
    issued = {lane: [] for lane in range(4)}
    woke = []
    enqueue_phases = LaneGroup.enqueue_phases
    enqueue_phase = Channel.enqueue_phase
    wake = LaneGroup.wake

    def group_issue(self, blocks, op, app_id, traffic, on_complete):
        for lane in issued:
            issued[lane] += [_coords(b, lane) for b in blocks]
        enqueue_phases(self, blocks, op, app_id, traffic, on_complete)

    def lane_issue(self, blocks, op, app_id, traffic, on_complete):
        lane = int(self.name.rsplit(".", 1)[1])
        assert {b.subchannel for b in blocks} == {lane}
        issued[lane] += [_coords(b, lane) for b in blocks]
        enqueue_phase(self, blocks, op, app_id, traffic, on_complete)

    def recording_wake(self):
        woke.append(sum(len(blocks) for blocks in issued.values()))
        wake(self)

    monkeypatch.setattr(LaneGroup, "enqueue_phases", group_issue)
    monkeypatch.setattr(Channel, "enqueue_phase", lane_issue)
    monkeypatch.setattr(LaneGroup, "wake", recording_wake)
    rig = Rig("lazy", depth=4, phases=0)
    done = []
    controller = _controller(rig, rig.sd)
    controller.begin_read(None, done.append)
    # The first issue took four blocks on every lane and stalled.
    assert not rig.live and woke == [16]
    assert isinstance(controller._pending, LaneShare)
    leaf = controller._placements[-1].bucket - rig.layout.tree.num_leaves
    rig.engine.run()
    assert len(done) == 1
    targets, stalled, remote = split_phase(_full_path(rig, leaf),
                                           OpType.READ, _Unbounded)
    assert not stalled and not remote
    assert [channel.key for channel, _blocks in targets] == \
        [(0, lane) for lane in range(4)]
    for channel, blocks in targets:
        lane = channel.key[1]
        assert issued[lane] == [_coords(b, lane) for b in blocks]


def test_three_lanes_never_share():
    """Z = 4 over three sub-channels: lane 0 holds two blocks of every
    bucket, so the layout never mirrors and no access gets a share."""
    rig = Rig("lazy", lanes=3, phases=0)
    assert rig.live
    placements = rig.sd.path_placements(rig.layout, LEAF)
    assert placements.__class__ is list
    assert len(placements) == len(_full_path(rig))
    assert not rig.layout.mirrors
    with pytest.raises(ValueError):
        rig.layout.lane_share(LEAF)


def test_fallback_engine_places_every_block_while_the_group_is_live(
        monkeypatch):
    """The failover engine shares the tree's layout but issues through
    the host-side ``BobChannelSink``: it keeps full placements even
    while the group is live (its blocks wake the group on arrival)."""
    seen = []
    issue_phase = BobChannelSink.issue_phase

    def recording_issue(self, placements, op, on_done):
        seen.append((placements.__class__, len(placements), rig.live))
        return issue_phase(self, placements, op, on_done)

    monkeypatch.setattr(BobChannelSink, "issue_phase", recording_issue)
    rig = Rig("lazy", phases=0)
    fallback = _controller(rig, BobChannelSink(rig.bobs, app_id=9),
                           name="oram0.fb")
    # The delegator would share this layout's paths right now.
    assert isinstance(rig.sd.path_placements(rig.layout, LEAF), LaneShare)
    done = []
    fallback.begin_read(None, done.append)
    assert seen[0] == (list, len(_full_path(rig)), True)
    rig.engine.run()
    assert len(done) == 1
    assert not rig.live
