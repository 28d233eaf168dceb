"""Lane groups against the per-lane oracle.

A secure BOB channel's sub-channels start as one lane group: the leader
simulates each slot once and produces every follower's seqs,
completions, statistics, trace events and census (DESIGN.md section 9a,
"Lane groups").  ``periodic="eager"`` forms no group, so an eager run is
the per-lane oracle and every comparison here is lazy (grouped) against
eager.  The wake tests drive one trigger each into a small fabric and
check that the group split and that every output still equals the
oracle's.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bob.link import LinkParams
from repro.core.delegator import SecureDelegator
from repro.core.schemes import run_scheme
from repro.core.sinks import BobChannelSink, enqueue_or_hold
from repro.core.system import build_bob_fabric
from repro.dram.channel import Channel, LaneGroup
from repro.dram.commands import MemRequest, OpType, ignore_completion
from repro.dram.timing import DDR3_1600, ChannelParams
from repro.faults import FaultController, FaultPlan
from repro.obs.export import trace_digest
from repro.obs.golden import GOLDEN_SCHEMES
from repro.obs.tracer import ALL_CATEGORIES, Tracer
from repro.oram.config import OramConfig
from repro.oram.layout import BlockPlacement, OramLayout
from repro.scenarios import golden_scenario_config, run_scenario
from repro.scenarios.config import ScenarioConfig, apply_overrides
from repro.sim.engine import Engine, ns

GOLDEN_LENGTH = 300


@pytest.fixture
def wakes(monkeypatch):
    """Every wake, as ``True`` when it came from inside the whole-run
    lazy loop (a live booking ledger) and ``False`` otherwise (an exit
    wake, or any wake outside that loop)."""
    record = []
    wake = LaneGroup.wake

    def recording_wake(self):
        record.append(self.leader.engine._ledger is not None)
        wake(self)

    monkeypatch.setattr(LaneGroup, "wake", recording_wake)
    return record


# ---------------------------------------------------------------------------
# Whole system
# ---------------------------------------------------------------------------

def _capture():
    """An empty fault plan that only captures every channel's commands
    (it arms no fault site, so no group wakes)."""
    return FaultController(FaultPlan(), capture_commands=True)


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_golden_schemes_match_the_per_lane_oracle(scheme, wakes):
    lazy_faults, eager_faults = _capture(), _capture()
    lazy = run_scheme(scheme, "libq", GOLDEN_LENGTH, faults=lazy_faults)
    in_loop = list(wakes)
    eager = run_scheme(scheme, "libq", GOLDEN_LENGTH, faults=eager_faults,
                       periodic="eager")
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert lazy.events == eager.events
    assert lazy.end_time == eager.end_time
    assert lazy_faults.command_logs == eager_faults.command_logs
    if scheme == "doram/0":
        # No NS traffic reaches the secure channel and the run never
        # stalls: the group stays live until the loop exits.
        assert not any(in_loop)


def test_golden_scenario_matches_the_per_lane_oracle(wakes, capture=True):
    lazy_faults, eager_faults = (_capture(), _capture()) if capture \
        else (None, None)
    lazy = run_scenario(golden_scenario_config(), faults=lazy_faults)
    assert not any(wakes)
    eager = run_scenario(golden_scenario_config(), faults=eager_faults,
                         periodic="eager")
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert lazy.events == eager.events
    assert lazy.end_time == eager.end_time
    if capture:
        assert lazy_faults.command_logs == eager_faults.command_logs
    # Liveness: the followers' dispatches are gone.  Without groups the
    # phase path alone leaves about 0.54 x events raw.
    assert lazy.raw_events < 0.3 * lazy.events


def test_golden_scenario_without_logs_matches_the_per_lane_oracle(wakes):
    """Without command logs the followers take the path ``serve`` takes;
    the 20 us horizon spans two refresh windows, so ``follow_refresh``
    runs too."""
    test_golden_scenario_matches_the_per_lane_oracle(wakes, capture=False)


#: The e2e ``serve`` workload's overrides (``benchmarks/e2e/workloads.py``,
#: ``SERVE_OVERRIDES``), cut to leaf level 16 and a 250 us horizon.
SERVE_SHAPE = {
    "num_tenants": 8,
    "arrival.rate_rps": 50_000.0,
    "horizon_ns": 250_000.0,
    "write_fraction": 0.25,
    "slo_target_ns": 4000.0,
    "oram.leaf_level": 16,
    "seed": 1,
}


def test_serve_shape_matches_the_per_lane_oracle():
    """Eight governed tenants with writes for 250 us: the random
    scenarios below stop at four tenants and 4 us."""
    config = apply_overrides(ScenarioConfig(), SERVE_SHAPE)
    lazy = run_scenario(config)
    eager = run_scenario(config, periodic="eager")
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert lazy.events == eager.events
    assert lazy.end_time == eager.end_time
    assert lazy.raw_events < 0.3 * lazy.events


scenarios = st.fixed_dictionaries({
    "num_tenants": st.integers(min_value=1, max_value=4),
    "secure_channels": st.sampled_from([(0,), (0, 1)]),
    "secure_subchannels": st.integers(min_value=2, max_value=4),
    "leaf_level": st.integers(min_value=8, max_value=12),
    "depth": st.integers(min_value=4, max_value=64),
    "write_fraction": st.floats(min_value=0.0, max_value=0.5),
    "seed": st.integers(min_value=0, max_value=50),
})


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios)
def test_random_scenarios_match_the_per_lane_oracle(scenario):
    """Three sub-channels never mirror (Z = 4); shallow queues stall, and
    the stalled pump's ``notify_on_space`` wakes the group."""
    depth = scenario["depth"]
    config = ScenarioConfig(
        num_tenants=scenario["num_tenants"],
        num_channels=3,
        secure_channels=scenario["secure_channels"],
        secure_subchannels=scenario["secure_subchannels"],
        oram=OramConfig(leaf_level=scenario["leaf_level"]),
        channel_params=ChannelParams(
            read_queue_depth=depth, write_queue_depth=depth,
            write_drain_hi=depth, write_drain_lo=depth // 2,
        ),
        horizon_ns=4000.0,
        write_fraction=scenario["write_fraction"],
        seed=scenario["seed"],
    )
    lazy = run_scenario(config)
    eager = run_scenario(config, periodic="eager")
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert lazy.events == eager.events
    assert lazy.end_time == eager.end_time


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scheme=st.sampled_from(["doram/0", "doram/2", "doram+1"]),
    depth=st.integers(min_value=4, max_value=32),
    seed=st.integers(min_value=0, max_value=50),
)
def test_shared_secure_channels_match_the_per_lane_oracle(scheme, depth,
                                                          seed):
    """NS requests that reach the secure channel wake its group."""
    overrides = {
        "seed": seed,
        "oram.leaf_level": 10,
        "channel_params.read_queue_depth": depth,
        "channel_params.write_queue_depth": depth,
        "channel_params.write_drain_hi": depth,
        "channel_params.write_drain_lo": depth // 2,
    }
    lazy = run_scheme(scheme, "libq", 150, **overrides)
    eager = run_scheme(scheme, "libq", 150, periodic="eager", **overrides)
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert lazy.events == eager.events
    assert lazy.end_time == eager.end_time


# ---------------------------------------------------------------------------
# A small fabric driven phase by phase
# ---------------------------------------------------------------------------

GAP_NS = 300
#: A read phase is issued at every even multiple of GAP_NS; triggers land
#: a few ns after one, while its CompletionGroups are partly counted.
MID_PHASE_NS = 2 * GAP_NS + 5


class Rig:
    """One secure BOB channel's sub-channels, fed ORAM path phases by a
    secure delegator the way a tree's controller feeds it -- a lane share
    per phase while the group is live, every lane's blocks once it has
    woken -- a read phase, then a write phase, every ``GAP_NS``."""

    def __init__(self, periodic, lanes=4, depth=64, tracer=None, phases=16,
                 seed=3, log=True):
        self.engine = engine = Engine(tracer=tracer, periodic=periodic)
        _channels, bobs = build_bob_fabric(
            engine, num_channels=2, secure_channels=(0,),
            secure_subchannels=lanes, normal_subchannels=1,
            dram_timing=DDR3_1600,
            channel_params=ChannelParams(
                read_queue_depth=depth, write_queue_depth=depth,
                write_drain_hi=depth, write_drain_lo=depth // 2,
            ),
            link_params=LinkParams(), tracer=tracer,
        )
        self.bobs = bobs
        self.lanes = bobs[0].subchannels
        #: Every lane's command log, or ``None`` (no lane logs: the
        #: followers take the path ``serve`` takes).
        self.logs = [lane.start_command_log() for lane in self.lanes] \
            if log else None
        self.layout = OramLayout(
            OramConfig(leaf_level=10),
            home_targets=[(0, i) for i in range(lanes)],
        )
        self.sd = SecureDelegator(engine, bobs[0], {1: bobs[1]}, app_id=9)
        self.done = []
        rng = random.Random(seed)
        for i in range(phases):
            leaf = rng.randrange(1 << 10)
            op = OpType.READ if i % 2 == 0 else OpType.WRITE
            engine.at(ns(i * GAP_NS),
                      lambda leaf=leaf, op=op: self.issue(leaf, op))

    def issue(self, leaf, op, placements=None):
        """Issue one phase of ``leaf``'s path: the placements the
        delegator chooses, or the given (full) ``placements``."""
        if placements is None:
            placements = self.sd.path_placements(self.layout, leaf)
        if op is OpType.READ:
            def done(t, leaf=leaf):
                self.done.append(("phase", leaf, t, self.engine.now))
        else:
            done = ignore_completion
        self.sd.issue_phase(placements, op, done)

    def note(self, tag):
        """A completion callback that records its own firing."""
        return lambda t: self.done.append((tag, t, self.engine.now))

    def at(self, time_ns, action):
        self.engine.at(ns(time_ns), action)

    @property
    def live(self):
        return self.lanes[0]._group is not None

    def outcome(self):
        engine = self.engine
        return {
            "events": engine.events_dispatched,
            "now": engine.now,
            "pending": engine.pending,
            "stats": [lane.stats.as_dict() for lane in self.lanes],
            "queries": [
                (lane.queued, lane.free_slots(OpType.READ),
                 lane.can_accept(OpType.WRITE), lane.utilization(),
                 lane.row_hit_rate(), lane.rank.refreshes)
                for lane in self.lanes
            ],
            "logs": [list(log) for log in self.logs or ()],
            "done": list(self.done),
        }


def _pair(**kwargs):
    return Rig("lazy", **kwargs), Rig("eager", **kwargs)


def _finish(rig):
    """Drain a run that stopped or raised with per-event steps."""
    while rig.engine.step():
        pass


def test_formation():
    lazy, eager = _pair()
    assert lazy.live and not eager.live
    group = lazy.lanes[0]._group
    assert group.lanes == lazy.lanes and group.leader is lazy.lanes[0]
    assert lazy.engine._lane_groups == [group]
    # Normal channels and single-sub-channel channels form no group.
    assert lazy.bobs[1].subchannels[0]._group is None
    assert not Rig("lazy", lanes=1).live
    with pytest.raises(ValueError):
        LaneGroup([Channel(Engine(), "a"), Channel(Engine(), "b")])


def test_untriggered_group_stays_live(wakes):
    lazy, eager = _pair()
    lazy.engine.run()
    eager.engine.run()
    # The run drained: nothing to wake for.
    assert lazy.live and not wakes
    assert lazy.outcome() == eager.outcome()
    assert len(lazy.done) == 8 * 4
    assert lazy.engine.raw_events_dispatched < \
        0.5 * eager.engine.raw_events_dispatched


def test_a_follower_captures_alone():
    """Only lane 2 captures: while the group is live the leader's banks
    log into lane 2's list, which must equal the per-lane oracle's."""
    lazy, eager = _pair(log=False)
    logs = [rig.lanes[2].start_command_log() for rig in (lazy, eager)]
    lazy.engine.run()
    eager.engine.run()
    assert lazy.live
    assert logs[0] == logs[1] != []
    assert all(lane.command_log is None
               for rig in (lazy, eager) for lane in rig.lanes[:2])


def _stat_objects(lane):
    """Every statistic object ``_service`` or a query touches on ``lane``."""
    return ([queue.latency for queues in (lane._reads, lane._writes)
             for queue in queues]
            + list(lane.stats._counters.values())
            + list(lane.stats._latencies.values()))


@pytest.mark.parametrize("lanes", [2, 4])
def test_follower_cost_does_not_grow_with_lanes(lanes, monkeypatch):
    """While the group is live a follower has no statistic object of its
    own to write (they are the leader's) and no bus time of its own, and
    each slot's no-op completions are one ledger booking of all lanes.
    The slot appends its booking to the ledger itself, so the ledger's
    entries are observed where the run settles them.  The ledger never
    fills here (no booking goes through ``Engine.book``, which would
    prune it), so it holds every booking the run made."""
    counts = []
    settle = Engine._settle_ledger

    def recording_settle(self, ledger, exit_event):
        counts.extend(booking[3] for booking in ledger)
        settle(self, ledger, exit_event)

    def no_book(self, *args):
        raise AssertionError("the ledger filled: pruned bookings go unseen")

    monkeypatch.setattr(Engine, "_settle_ledger", recording_settle)
    monkeypatch.setattr(Engine, "book", no_book)
    lazy, eager = _pair(lanes=lanes, log=False)
    leader = lazy.lanes[0]

    def shared():
        assert lazy.live
        for lane in lazy.lanes[1:]:
            assert lane.stats is leader.stats
            assert all(mine is theirs for mine, theirs in
                       zip(_stat_objects(lane), _stat_objects(leader)))
            # Its bus time and row counts derive from the leader's; its
            # own banks commit nothing.
            assert not any(bank.hits or bank.misses or bank.conflicts
                           for bank in lane.banks)

    lazy.at(MID_PHASE_NS, shared)
    eager.at(MID_PHASE_NS, lambda: None)  # the same event census
    for rig in (lazy, eager):
        rig.engine.run()
    shared()
    assert leader.utilization() > 0
    assert counts and all(count == lanes for count in counts)
    assert lazy.outcome() == eager.outcome()


def test_traced_lanes_emit_per_lane():
    digests = []
    for periodic in ("lazy", "eager"):
        tracer = Tracer()
        rig = Rig(periodic, tracer=tracer)
        rig.engine.run()
        digests.append(trace_digest(tracer.events))
        assert any(e.name == "frfcfs_reorder" and e.track == "ch0.3"
                   for e in tracer.events)
    assert rig.outcome()["done"]
    assert digests[0] == digests[1]


def test_follower_queries_match_while_live(log=True):
    """Queue, utilization, row-hit and stat queries on a live group's
    followers answer as their own channels would, and wake nothing."""
    seen = {True: [], False: []}

    def probe(rig):
        seen[rig.engine.lazy_periodic].append((rig.live, [
            (lane.queued, lane.free_slots(OpType.READ),
             lane.free_slots(OpType.WRITE), lane.can_accept(OpType.READ),
             lane.utilization(), lane.row_hit_rate(),
             lane.stats.as_dict(), lane.rank.refreshes)
            for lane in rig.lanes
        ]))

    lazy, eager = _pair(log=log)
    for rig in (lazy, eager):
        for time_ns in (MID_PHASE_NS, 9 * GAP_NS + 3):
            rig.at(time_ns, lambda rig=rig: probe(rig))
        rig.engine.run()
    assert [live for live, _queries in seen[True]] == [True, True]
    assert [queries for _live, queries in seen[True]] == \
        [queries for _live, queries in seen[False]]
    assert all(queries[3][0] > 0 for _live, queries in seen[True])
    assert lazy.live


def test_follower_queries_match_while_live_without_logs():
    """No lane logs commands: the path ``serve`` takes."""
    test_follower_queries_match_while_live(log=False)


# -- wake triggers ----------------------------------------------------------

def _enqueue(source):
    """A per-request enqueue on lane 2 from ``source``."""
    def trigger(rig):
        lane = rig.lanes[2]
        if source == "ns_submit":
            rig.bobs[0].enqueue(MemRequest(OpType.READ, 0, 2, 1, 5, 0, 1,
                                           on_complete=rig.note("ns")))
        elif source == "guarded_reissue":
            # GuardedRead re-issues a flipped block through this call.
            enqueue_or_hold(lane, MemRequest(
                OpType.READ, 0, 2, 1, 5, 0, 9, on_complete=rig.note("re")))
        else:  # the failover engine's host-side sink
            sink = BobChannelSink(rig.bobs, app_id=9)
            sink.issue_phase(rig.layout.path_placements(7), OpType.READ,
                             rig.note("failover"))
    return trigger


def _notify(rig):
    rig.lanes[1].notify_on_space(
        lambda: rig.done.append(("space", rig.engine.now)))


class _NoFlip:
    """A DRAM fault site that never flips a burst."""

    def maybe_flip(self, on_complete):
        return False


def _arm(rig):
    rig.lanes[3].arm_faults(_NoFlip())


def _mismatch(rig):
    """A phase of full placements whose blocks on lane 3 sit one row
    off, issued per lane."""
    placements = [
        p if p.subchannel != 3 else BlockPlacement(
            p.bucket, p.slot, p.channel, 3, p.bank, p.row + 1, p.col,
            False, p.target)
        for p in rig.layout.path_placements(11)
    ]
    rig.issue(11, OpType.READ, placements)


def _subset(rig):
    """A phase of full placements that reaches only lanes 0 and 1,
    issued per lane."""
    placements = [p for p in rig.layout.path_placements(13)
                  if p.subchannel < 2]
    rig.issue(13, OpType.READ, placements)


#: Trigger -> the completion tag it adds (None: it adds no completion).
TRIGGERS = {
    "enqueue_ns_submit": (_enqueue("ns_submit"), "ns"),
    "enqueue_guarded_reissue": (_enqueue("guarded_reissue"), "re"),
    "enqueue_failover_sink": (_enqueue("failover_sink"), "failover"),
    "notify_on_space": (_notify, "space"),
    "arm_faults": (_arm, None),
    "shares_do_not_mirror": (_mismatch, None),
    "targets_are_not_the_lanes": (_subset, None),
}


@pytest.mark.parametrize("name", sorted(TRIGGERS))
def test_trigger_wakes_the_group(name, wakes):
    trigger, tag = TRIGGERS[name]
    lazy, eager = _pair()
    for rig in (lazy, eager):
        rig.at(MID_PHASE_NS, lambda rig=rig: trigger(rig))
        rig.engine.run()
    assert not lazy.live
    assert wakes == [True]
    assert lazy.outcome() == eager.outcome()
    if tag is not None:
        assert any(entry[0] == tag for entry in lazy.done)
    # The wake gave every follower its own statistics, under its name.
    for lane in lazy.lanes:
        assert lane.stats.owner == lane.name
        assert all(stat.name.startswith(lane.name + ".")
                   for stat in _stat_objects(lane))


def test_three_lanes_never_mirror(wakes):
    """Z = 4 over three sub-channels: lane 0 takes two blocks a bucket,
    so the layout never mirrors, every phase is issued per lane, and the
    first wakes the group."""
    lazy, eager = _pair(lanes=3)
    lazy.engine.run()
    eager.engine.run()
    assert not lazy.live and wakes == [True]
    assert lazy.outcome() == eager.outcome()


def test_wake_clones_partly_counted_completion_groups():
    """A wake mid read phase: each follower gets its own CompletionGroup
    at the leader's remaining count, so every lane still completes the
    phase exactly once."""
    seen = {}

    def probe(rig):
        seen[rig.engine.lazy_periodic] = rig.live
        _arm(rig)
        groups = [[req.on_complete for queue in lane._reads
                   for req in queue.reqs] for lane in rig.lanes]
        seen[rig] = [[g.remaining for g in lane] for lane in groups]
        if rig.engine.lazy_periodic:
            assert len({id(g) for lane in groups for g in lane}) == \
                len(rig.lanes)

    lazy, eager = _pair()
    for rig in (lazy, eager):
        rig.at(MID_PHASE_NS, lambda rig=rig: probe(rig))
        rig.engine.run()
    assert seen[True] and not seen[False]
    assert seen[lazy] == seen[eager]
    assert all(0 < count < 8 for lane in seen[lazy] for count in lane)
    assert lazy.outcome() == eager.outcome()
    assert len(lazy.done) == 8 * 4


# -- dispatch outside the untraced whole-run lazy loop -----------------------

def test_step_wakes():
    lazy, eager = _pair()
    for _ in range(150):
        assert lazy.engine.step() and eager.engine.step()
    assert lazy.outcome() == eager.outcome()
    assert not lazy.live
    _finish(lazy)
    _finish(eager)
    assert lazy.outcome() == eager.outcome()


def test_engine_trace_category_wakes():
    tracers = (Tracer(ALL_CATEGORIES), Tracer(ALL_CATEGORIES))
    lazy = Rig("lazy", tracer=tracers[0])
    eager = Rig("eager", tracer=tracers[1])
    for rig in (lazy, eager):
        rig.engine.run()
    assert lazy.outcome() == eager.outcome()
    assert trace_digest(tracers[0].events) == trace_digest(tracers[1].events)
    assert not lazy.live


# -- early exit from the whole-run loop --------------------------------------

def test_stop_wakes_so_pending_and_resume_match(wakes, log=True):
    lazy, eager = _pair(log=log)
    for rig in (lazy, eager):
        rig.at(MID_PHASE_NS, rig.engine.stop)
        rig.engine.run()
    assert lazy.outcome() == eager.outcome()
    assert not lazy.live and wakes == [False]
    _finish(lazy)
    _finish(eager)
    assert lazy.outcome() == eager.outcome()


def test_stop_without_logs_wakes_so_pending_and_resume_match(wakes):
    test_stop_wakes_so_pending_and_resume_match(wakes, log=False)


@pytest.mark.parametrize("log", [True, False], ids=["logs", "no_logs"])
@pytest.mark.parametrize("lanes", [2, 4])
def test_stop_leaves_the_per_lane_seq_layout(lanes, log):
    """The seqs a live group's slots take for every lane -- completions
    pushed or booked, the followers' pending services -- are the ones
    the per-lane services take: stopped mid phase, the queue holds the
    same ``(time, seq)`` entries as eager's, and the next seq is equal."""
    lazy, eager = _pair(lanes=lanes, log=log)
    for rig in (lazy, eager):
        rig.at(MID_PHASE_NS, rig.engine.stop)
        rig.engine.run()
    layouts = [sorted(entry[:2] for entry in rig.engine._queue)
               for rig in (lazy, eager)]
    assert layouts[0] == layouts[1]
    assert len(layouts[0]) > lanes
    assert lazy.engine._seq == eager.engine._seq


def test_exception_wakes_so_pending_and_resume_match(log=True):
    def boom():
        raise KeyError("boom")

    lazy, eager = _pair(log=log)
    for rig in (lazy, eager):
        rig.at(MID_PHASE_NS, boom)
        with pytest.raises(KeyError):
            rig.engine.run()
    assert lazy.outcome() == eager.outcome()
    assert not lazy.live
    _finish(lazy)
    _finish(eager)
    assert lazy.outcome() == eager.outcome()


def test_exception_without_logs_wakes_so_pending_and_resume_match():
    test_exception_wakes_so_pending_and_resume_match(log=False)
