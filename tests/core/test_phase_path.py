"""The phase path against the per-block oracle.

The ORAM controller hands each sink a whole phase; each sub-channel
takes its share in one ``enqueue_phase`` call, a stall-free read phase
completes once per sub-channel (``CompletionGroup``), and no-op
completions are booked in the engine's census instead of dispatched.

The oracle needs no test hook.  A fault plan with a rate-0 DRAM rule on
every channel arms a fault site everywhere, which routes every
sub-channel's reads through the per-block ``GuardedRead`` path; the
rule never flips anything, and ``periodic="eager"`` dispatches every
completion.  That run must be indistinguishable from the bare lazy run:
same payload, same logical event census, same golden trace digest.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.schemes import run_scheme
from repro.core.sinks import DirectChannelSink
from repro.dram.address_mapping import decode_line
from repro.dram.channel import Channel
from repro.dram.commands import (
    MemRequest,
    OpType,
    TrafficClass,
    ignore_completion,
)
from repro.dram.timing import ChannelParams
from repro.faults import FaultController, FaultPlan
from repro.faults.plan import DramFault
from repro.obs.export import trace_digest
from repro.obs.golden import GOLDEN_SCHEMES, run_traced
from repro.obs.tracer import Tracer
from repro.oram.config import OramConfig
from repro.oram.layout import BlockPlacement, OramLayout
from repro.sim.engine import Engine


def per_block_oracle():
    """A rate-0 DRAM site on every channel: per-block issue, no flips."""
    return FaultController(FaultPlan(dram=(DramFault(rate=0.0),)))


# ---------------------------------------------------------------------------
# Whole-system equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_golden_schemes_match_the_per_block_oracle(scheme):
    lazy, lazy_trace = run_traced(scheme)
    oracle, oracle_trace = run_traced(
        scheme, periodic="eager", faults=per_block_oracle()
    )
    assert lazy.to_json_dict() == oracle.to_json_dict()
    assert lazy.events == oracle.events
    assert trace_digest(lazy_trace.events) == trace_digest(oracle_trace.events)
    # The oracle dispatched every completion; the phase path did not.
    assert oracle.raw_events == oracle.events
    assert lazy.raw_events < oracle.raw_events


def _scenario(periodic, faults=None):
    from repro.scenarios import golden_scenario_config, run_scenario

    tracer = Tracer()
    result = run_scenario(golden_scenario_config(), tracer=tracer,
                          periodic=periodic, faults=faults)
    return result, trace_digest(tracer.events)


def test_golden_scenario_matches_the_per_block_oracle():
    lazy, lazy_digest = _scenario("lazy")
    oracle, oracle_digest = _scenario("eager", per_block_oracle())
    assert lazy.to_json_dict() == oracle.to_json_dict()
    assert lazy.report_digest() == oracle.report_digest()
    assert lazy.events == oracle.events
    assert lazy.end_time == oracle.end_time
    assert lazy_digest == oracle_digest


def test_golden_scenario_books_most_completions():
    """Liveness: the phase path must actually elide dispatches (the same
    bar the fig9 census test sets for the lazy periodic streams)."""
    lazy, _digest = _scenario("lazy")
    assert lazy.raw_events < 0.6 * lazy.events


systems = st.fixed_dictionaries({
    "leaf_level": st.integers(min_value=8, max_value=12),
    "split_k": st.integers(min_value=0, max_value=1),
    "fork_path": st.booleans(),
    "num_s_apps": st.integers(min_value=1, max_value=2),
    "ns_share": st.booleans(),
    "depth": st.integers(min_value=4, max_value=24),
    "seed": st.integers(min_value=0, max_value=50),
})


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(system=systems)
def test_random_systems_match_the_per_block_oracle(system):
    """Small random D-ORAM systems, queues shallow enough that phases
    stall (per-block read completions) as well as fit (one completion
    per sub-channel)."""
    depth = system["depth"]
    overrides = {
        "fork_path": system["fork_path"],
        "num_s_apps": system["num_s_apps"],
        "num_ns_apps": 2,
        "seed": system["seed"],
        "oram.leaf_level": system["leaf_level"],
        "channel_params.read_queue_depth": depth,
        "channel_params.write_queue_depth": depth,
        "channel_params.write_drain_hi": depth,
        "channel_params.write_drain_lo": depth // 2,
    }
    # doram+K/0 closes the secure channel to NS traffic.
    scheme = f"doram+{system['split_k']}" + ("" if system["ns_share"] else "/0")
    lazy = run_scheme(scheme, "libq", 60, **overrides)
    oracle = run_scheme(scheme, "libq", 60, periodic="eager",
                        faults=per_block_oracle(), **overrides)
    assert lazy.to_json_dict() == oracle.to_json_dict()
    assert lazy.events == oracle.events


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------

def _placement(channel, bank, row, slot=0):
    return BlockPlacement(bucket=8, slot=slot, channel=channel, subchannel=0,
                          bank=bank, row=row, col=slot, remote=False)


def _channels(eng, depth=64):
    params = ChannelParams(read_queue_depth=depth, write_queue_depth=depth,
                           write_drain_hi=min(40, depth),
                           write_drain_lo=min(16, depth - 1))
    return {(ch, 0): Channel(eng, f"ch{ch}", params=params) for ch in range(4)}


class TestEnqueuePhase:
    def _queue_state(self, channel):
        return [[(r.bank, r.row, r.col, r.arrival, r._enq_seq, r.traffic)
                 for r in queue.reqs] for queue in channel._reads]

    def test_equals_per_block_enqueue(self):
        blocks = [_placement(0, bank % 3, bank % 2, slot=bank)
                  for bank in range(6)]
        states = []
        for phase in (True, False):
            eng = Engine()
            channel = Channel(eng, "ch0")
            done = []
            if phase:
                channel.enqueue_phase(blocks, OpType.READ, 7,
                                      TrafficClass.SECURE, done.append)
            else:
                for b in blocks:
                    channel.enqueue(MemRequest(
                        OpType.READ, b.channel, b.subchannel, b.bank, b.row,
                        b.col, 7, TrafficClass.SECURE, 0, done.append,
                    ))
            index = [[{row: [r._enq_seq for r in reqs]
                       for row, reqs in bank.items()}
                      for bank in queue.index] for queue in channel._reads]
            before = (self._queue_state(channel), channel._rq_len, index,
                      list(eng._queue))
            eng.run()
            states.append((before, done, channel.stats.as_dict()))
        assert states[0][0][:3] == states[1][0][:3]
        # One service kick, at the same (time, seq).
        assert [e[:2] for e in states[0][0][3]] == \
            [e[:2] for e in states[1][0][3]]
        assert states[0][1:] == states[1][1:]

    def test_overfilling_raises(self):
        eng = Engine()
        channel = _channels(eng, depth=2)[(0, 0)]
        assert channel.free_slots(OpType.READ) == 2
        with pytest.raises(RuntimeError):
            channel.enqueue_phase([_placement(0, 0, r) for r in range(3)],
                                  OpType.READ, 0, TrafficClass.SECURE,
                                  lambda t: None)

    def test_bank_out_of_range_raises(self):
        eng = Engine()
        channel = Channel(eng, "ch0")
        with pytest.raises(ValueError):
            channel.enqueue_phase([_placement(0, 99, 0)], OpType.READ, 0,
                                  TrafficClass.SECURE, lambda t: None)


class TestDirectSinkPhase:
    def _phase(self):
        # Two blocks on each of the four channels, bucket-major.
        return [_placement(ch, bank=i, row=i, slot=ch)
                for i in range(2) for ch in range(4)]

    def test_stall_free_read_completes_once_per_channel(self):
        eng = Engine()
        sink = DirectChannelSink(_channels(eng), app_id=9)
        done = []
        stalled, owed = sink.issue_phase(self._phase(), OpType.READ,
                                         done.append)
        assert (stalled, owed) == ([], 4)
        eng.run()
        assert len(done) == 4

    def test_stalled_read_completes_per_block(self):
        eng = Engine()
        sink = DirectChannelSink(_channels(eng, depth=2), app_id=9)
        done = []
        phase = [_placement(ch, bank=i, row=i, slot=ch)
                 for i in range(3) for ch in range(4)]
        stalled, owed = sink.issue_phase(phase, OpType.READ, done.append)
        # Each channel takes its first two blocks; the rest stall in
        # order, and every accepted block owes its own completion.
        assert stalled == phase[8:]
        assert owed == 8
        eng.run()
        assert len(done) == 8

    def test_kicks_take_the_per_block_seqs(self):
        """One kick per channel, at the (time, seq) the per-block loop
        gave it: channels are kicked in order of first appearance."""
        phase = [_placement(ch, bank=i, row=i, slot=ch)
                 for i in range(2) for ch in (2, 0, 3, 1)]
        kicks = []
        for per_block in (False, True):
            eng = Engine()
            channels = _channels(eng)
            if per_block:
                for p in phase:
                    channels[p.target].enqueue(MemRequest(
                        OpType.READ, p.channel, p.subchannel, p.bank, p.row,
                        p.col, 9, TrafficClass.SECURE, 0, lambda t: None,
                    ))
            else:
                DirectChannelSink(channels, app_id=9).issue_phase(
                    phase, OpType.READ, lambda t: None
                )
            kicks.append([(t, seq, cb.__self__.name)
                          for t, seq, cb, _arg in sorted(eng._queue)])
        assert kicks[0] == kicks[1]
        assert [name for _t, _s, name in kicks[0]] == \
            ["ch2", "ch0", "ch3", "ch1"]

    def test_fault_gating_is_per_channel(self):
        """Only the channel carrying a DRAM fault site issues reads per
        block (GuardedRead); the others still share one completion."""
        eng = Engine()
        channels = _channels(eng)
        faults = FaultController(
            FaultPlan(dram=(DramFault(channel="ch2", rate=0.0),))
        )
        faults.bind(eng)
        for channel in channels.values():
            site = faults.dram_site(channel.name)
            if site is not None:
                channel.arm_faults(site)
        sink = DirectChannelSink(channels, app_id=9, faults=faults)
        done = []
        _stalled, owed = sink.issue_phase(self._phase(), OpType.READ,
                                          done.append)
        assert owed == 3 + 2
        eng.run()
        assert len(done) == 5

    def test_remote_blocks_are_refused(self):
        eng = Engine()
        sink = DirectChannelSink(_channels(eng), app_id=9)
        remote = BlockPlacement(bucket=8, slot=0, channel=1, subchannel=0,
                                bank=0, row=0, col=0, remote=True)
        with pytest.raises(ValueError):
            sink.issue_phase([remote], OpType.READ, lambda t: None)

    def test_writes_owe_nothing_observable(self):
        eng = Engine()
        channels = _channels(eng)
        sink = DirectChannelSink(channels, app_id=9)
        stalled, _owed = sink.issue_phase(self._phase(), OpType.WRITE,
                                          ignore_completion)
        assert stalled == []
        eng.run()
        assert sum(c.stats.counter("writes_serviced").value
                   for c in channels.values()) == 8
        assert eng.events_synthesized == 8


class TestDelegatorPhase:
    """The SD's sink: local groups only when nothing at all stalled."""

    def _build(self, depth, split_k):
        from repro.bob.channel import BobChannel
        from repro.core.delegator import SecureDelegator

        eng = Engine()
        params = ChannelParams(read_queue_depth=depth,
                               write_queue_depth=depth,
                               write_drain_hi=depth,
                               write_drain_lo=depth // 2)
        secure = BobChannel(eng, 0, [Channel(eng, f"ch0.{i}", params=params)
                                     for i in range(4)])
        normal = {ch: BobChannel(eng, ch, [Channel(eng, f"ch{ch}.0")])
                  for ch in (1, 2, 3)}
        sd = SecureDelegator(eng, secure, normal)
        cfg = OramConfig(leaf_level=9, treetop_levels=3, subtree_levels=3)
        layout = OramLayout(
            cfg, [(0, i) for i in range(4)],
            home_levels=cfg.num_levels - split_k,
            remote_targets=[(1, 0), (2, 0), (3, 0)] if split_k else (),
        )
        return sd, layout.path_placements(5)

    def test_fitting_read_owes_one_per_subchannel(self):
        sd, phase = self._build(depth=64, split_k=0)
        stalled, owed = sd.issue_phase(phase, OpType.READ, lambda t: None)
        assert (stalled, owed) == ([], 4)

    def test_local_stall_keeps_per_block_completions(self):
        sd, phase = self._build(depth=4, split_k=0)
        stalled, owed = sd.issue_phase(phase, OpType.READ, lambda t: None)
        assert len(stalled) == len(phase) - 16
        assert owed == 16

    def test_remote_stall_keeps_per_block_completions(self):
        """Locals all fit, but the remote window takes only one block."""
        sd, phase = self._build(depth=64, split_k=1)
        sd._remote_outstanding = sd.REMOTE_WINDOW - 1
        remote = [p for p in phase if p.remote]
        stalled, owed = sd.issue_phase(phase, OpType.READ, lambda t: None)
        assert stalled == remote[1:]
        assert owed == len(phase) - len(remote) + 1


def _fields(placement):
    """A placement's coordinates (placements compare by identity)."""
    if placement is None:
        return None
    return (placement.bucket, placement.slot, placement.channel,
            placement.subchannel, placement.bank, placement.row,
            placement.col, placement.remote, placement.target)


class TestBucketPlacements:
    def _layout(self, targets=4):
        cfg = OramConfig(leaf_level=10, treetop_levels=2, subtree_levels=3)
        return cfg, OramLayout(cfg, [(0, i) for i in range(targets)])

    @pytest.mark.parametrize("targets", [4, 2])
    def test_place_reads_the_bucket_function(self, targets):
        """Slot ``s`` of a home bucket sits on target ``s % n`` at line
        ``base + packed * blocks_per_target + s // n``; with two targets
        a bucket spans two lines.  Buckets 200 and 2047 lie past the
        memoized levels, so each call places them afresh."""
        cfg, layout = self._layout(targets)
        per_target = -(-cfg.bucket_size // targets)
        for bucket in (1, 3, 4, 9, 200, 2047):
            placements = layout.bucket_placements(bucket)
            singles = [layout.place(bucket, s) for s in range(cfg.bucket_size)]
            if not placements:
                assert singles == [None] * cfg.bucket_size
                continue
            assert [_fields(p) for p in placements] == \
                [_fields(p) for p in singles]
            for slot, p in enumerate(placements):
                line = (layout.base_line
                        + layout.packed_index(bucket) * per_target
                        + slot // targets)
                assert (p.bucket, p.slot) == (bucket, slot)
                assert p.target == (0, slot % targets)
                assert (p.bank, p.row, p.col) == \
                    decode_line(line, layout.device)

    def test_path_placements_are_bucket_major(self):
        cfg, layout = self._layout()
        path = layout.path_placements(77)
        buckets = layout.tree.path_buckets(77)[cfg.treetop_levels:]
        assert [(p.bucket, p.slot) for p in path] == [
            (b, s) for b in buckets for s in range(cfg.bucket_size)
        ]

    def test_cache_is_keyed_per_bucket(self):
        """The memo holds the path's buckets on the levels below the
        tree-top cache and above ``treetop_levels + subtree_levels``
        (levels 2-4 here), one entry per bucket."""
        cfg, layout = self._layout()
        layout.path_placements(5)
        bound = cfg.treetop_levels + cfg.subtree_levels
        assert set(layout._bucket_cache) == set(
            layout.tree.path_buckets(5)[cfg.treetop_levels:bound])
