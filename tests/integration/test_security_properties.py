"""Security-facing end-to-end properties.

The threat model (Section II-B): an observer sees every address and
command on the parallel buses (behind the BOB buffer included) and every
packet on the serial links, but packet *contents* on the secure link are
sealed.  These tests check the observable traces carry no information
about the S-App's logical behaviour.
"""

import random
from collections import Counter as TallyCounter

from repro.bob.channel import BobChannel
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.dram.channel import Channel
from repro.obs.tracer import Tracer
from repro.oram.config import OramConfig
from repro.oram.controller import OramController
from repro.oram.layout import OramLayout
from repro.oram.path_oram import PathOram
from repro.sim.engine import Engine


class TestFunctionalObliviousness:
    def _physical_trace(self, logical_pattern, seed=13):
        trace = []
        oram = PathOram(
            OramConfig(leaf_level=6, treetop_levels=2, subtree_levels=3),
            seed=seed,
            trace_hook=lambda kind, bucket: trace.append(bucket),
        )
        for block in logical_pattern:
            oram.read(block)
        return trace

    def test_hot_block_does_not_bias_bucket_histogram(self):
        """Repeatedly reading one block vs scanning all blocks yields
        statistically similar level-by-level bucket usage."""
        hot = self._physical_trace([7] * 200)
        scan = self._physical_trace([i % 100 for i in range(200)])
        hot_counts = TallyCounter(hot)
        scan_counts = TallyCounter(scan)
        # Compare at level 2 (4 buckets: 4..7): each should get ~1/4 of
        # the traffic under both patterns.
        for bucket in (4, 5, 6, 7):
            hot_frac = hot_counts[bucket] / 200
            scan_frac = scan_counts[bucket] / 200
            assert abs(hot_frac - scan_frac) < 0.15

    def test_trace_length_is_pattern_independent(self):
        """Every access touches exactly one path: trace length is a
        function of access count only."""
        a = self._physical_trace([0] * 50)
        b = self._physical_trace(list(range(50)))
        assert len(a) == len(b)


def _secure_link(seed=1, tracer=None):
    """A CPU -> secure link -> SD stack with a fixed-rate ORAM frontend;
    returns ``(engine, session, frontend)``."""
    from repro.core.frontend import OramFrontend
    from repro.core.recovery import SecureLinkSession

    eng = Engine()
    subs = [Channel(eng, f"s{i}") for i in range(4)]
    bob = BobChannel(eng, 0, subs, tracer=tracer)
    sd = SecureDelegator(eng, bob, {}, process_ns=5.0)
    cfg = OramConfig(leaf_level=8, treetop_levels=3, subtree_levels=3)
    layout = OramLayout(cfg, [(0, i) for i in range(4)])
    controller = OramController(eng, cfg, layout, sd, seed=seed)
    sd.sequencer = OramSequencer(controller)
    session = SecureLinkSession(eng, bob, sd, controller)
    frontend = OramFrontend(eng, session, t_cycles=50, tracer=tracer)
    session.bind_pacer(frontend.pacer)
    return eng, session, frontend


class TestRequestTypeHiding:
    def _link_packets(self, op):
        """Every packet an observer sees on the secure link while the
        S-App issues one request of type ``op``: (link, tag, start,
        bytes), plus how many real requests the frontend emitted."""
        tracer = Tracer(categories={"link", "oram"})
        eng, _, frontend = _secure_link(tracer=tracer)
        frontend.start()
        eng.after(100, lambda: frontend.issue(op, 3, 7, None))
        eng.at(100_000, eng.stop)
        eng.run()
        packets = [(e.track, e.name, e.ts, e.args["bytes"])
                   for e in tracer.events if e.cat == "link"]
        real = sum(e.args["real"] for e in tracer.events
                   if e.cat == "oram" and e.name == "emit")
        return packets, real

    def test_sealed_read_write_indistinguishable_in_length(self):
        """A read and a write cross the secure link as the same
        fixed-format packets (III-B): the request type never shows in a
        packet's size, count or timing."""
        from repro.core.config import PACKET_BYTES
        from repro.dram.commands import OpType

        reads, read_real = self._link_packets(OpType.READ)
        writes, write_real = self._link_packets(OpType.WRITE)
        assert read_real == write_real == 1
        assert reads == writes
        assert {size for *_, size in reads} == {PACKET_BYTES}


class TestTimingChannel:
    def _request_times(self, real_blocks, seed=1):
        """Observable request-packet times on the secure link for a given
        S-App demand pattern."""
        from repro.dram.commands import OpType

        eng, session, frontend = _secure_link(seed)
        times = []
        original = session.submit

        def tracked(block_id, on_response):
            times.append(eng.now)
            original(block_id, on_response)

        session.submit = tracked
        frontend.start()
        for block in real_blocks:
            eng.after(100, lambda b=block: frontend.issue(
                OpType.READ, b, 7, lambda t: None))
        eng.at(400_000, eng.stop)
        eng.run()
        return times

    def test_emission_times_independent_of_demand(self):
        """The request stream on the link is the same whether the S-App
        is idle (all dummies) or busy -- the timing-channel guarantee."""
        idle = self._request_times([])
        busy = self._request_times([1, 2, 3, 4, 5])
        assert idle == busy
