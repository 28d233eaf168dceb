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
from repro.crypto.otp import OtpEngine
from repro.dram.channel import Channel
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


class TestRequestTypeHiding:
    def test_sealed_read_write_indistinguishable_in_length(self):
        from repro.core.packets import SecurePacket
        cpu = OtpEngine(b"K" * 16, 1)
        read = cpu.seal(SecurePacket.read_request(0x10).encode())
        write = cpu.seal(
            SecurePacket.write_request(0x20, b"\x99" * 64).encode()
        )
        assert len(read) == len(write)

    def test_sealed_packets_look_random(self):
        # Two seals of the same packet share no long common prefix.
        from repro.core.packets import SecurePacket
        cpu = OtpEngine(b"K" * 16, 1)
        pkt = SecurePacket.read_request(0x10).encode()
        a, b = cpu.seal(pkt), cpu.seal(pkt)
        common = sum(x == y for x, y in zip(a[8:], b[8:]))
        assert common < len(a) // 3


class TestTimingChannel:
    def _request_times(self, real_blocks, seed=1):
        """Observable request-packet times on the secure link for a given
        S-App demand pattern."""
        eng = Engine()
        subs = [Channel(eng, f"s{i}") for i in range(4)]
        bob = BobChannel(eng, 0, subs)
        sd = SecureDelegator(eng, bob, {}, process_ns=5.0)
        cfg = OramConfig(leaf_level=8, treetop_levels=3, subtree_levels=3)
        layout = OramLayout(cfg, [(0, i) for i in range(4)])
        controller = OramController(eng, cfg, layout, sd, seed=seed)
        sd.sequencer = OramSequencer(controller)

        from repro.core.frontend import OramFrontend
        from repro.core.recovery import SecureLinkSession
        from repro.dram.commands import OpType

        session = SecureLinkSession(eng, bob, sd, controller)
        frontend = OramFrontend(eng, session, t_cycles=50)
        session.bind_pacer(frontend.pacer)

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
        eng.run(until=400_000)
        return times

    def test_emission_times_independent_of_demand(self):
        """The request stream on the link is the same whether the S-App
        is idle (all dummies) or busy -- the timing-channel guarantee."""
        idle = self._request_times([])
        busy = self._request_times([1, 2, 3, 4, 5])
        assert idle == busy
