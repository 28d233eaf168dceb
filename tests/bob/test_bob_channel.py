"""BOB channel: packetized requests, windows, sub-channel dispatch."""

import pytest

from repro.bob.channel import BobChannel
from repro.bob.link import LinkParams
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.dram.timing import ChannelParams, DDR3_1600 as T
from repro.sim.engine import Engine, ns


def make_bob(nsub=1, window=64, **chan_kw):
    eng = Engine()
    subs = [Channel(eng, f"sub{i}", **chan_kw) for i in range(nsub)]
    bob = BobChannel(eng, 0, subs, window=window)
    return eng, bob, subs


class TestNormalTraffic:
    def test_read_round_trip_latency(self):
        eng, bob, _ = make_bob()
        done = []
        bob.enqueue(MemRequest(OpType.READ, 0, 0, bank=0, row=0, col=0,
                               app_id=0, on_complete=done.append))
        eng.run()
        # down link (16 B) + DRAM closed-row access + up link (72 B).
        link = LinkParams()
        expected = (
            link.serialization(16) + link.latency
            + T.tRCD + T.tCL + T.tBURST
            + link.serialization(72) + link.latency
        )
        assert done == [expected]

    def test_bob_adds_15ns_over_direct(self):
        # The paper models 15 ns of link + BoB control overhead; an idle
        # round trip pays exactly 2 x 7.5 ns latency + serialization.
        eng, bob, _ = make_bob()
        done = []
        bob.enqueue(MemRequest(OpType.READ, 0, 0, 0, 0, 0, 0,
                               on_complete=done.append))
        eng.run()
        direct = T.tRCD + T.tCL + T.tBURST
        overhead_ns = (done[0] - direct) / 16
        assert overhead_ns == pytest.approx(15.0 + (16 + 72) / 12.8, abs=0.1)

    def test_write_has_no_response_packet(self):
        eng, bob, _ = make_bob()
        done = []
        bob.enqueue(MemRequest(OpType.WRITE, 0, 0, 0, 0, 0, 0,
                               on_complete=done.append))
        eng.run()
        assert bob.stats.counter("packets_up").value == 0
        assert done  # completes at DRAM write

    def test_window_backpressure(self):
        eng, bob, _ = make_bob(window=2)
        bob.enqueue(MemRequest(OpType.READ, 0, 0, 0, 0, 0, 0))
        bob.enqueue(MemRequest(OpType.READ, 0, 0, 0, 0, 1, 0))
        assert not bob.can_accept(OpType.READ)
        with pytest.raises(RuntimeError):
            bob.enqueue(MemRequest(OpType.READ, 0, 0, 0, 0, 2, 0))
        woken = []
        bob.notify_on_space(lambda: woken.append(eng.now))
        eng.run()
        assert woken
        assert bob.can_accept(OpType.READ)

    def test_multi_subchannel_dispatch(self):
        eng, bob, subs = make_bob(nsub=4)
        for i in range(4):
            bob.enqueue(MemRequest(OpType.READ, 0, i, 0, 0, 0, 0))
        eng.run()
        for sub in subs:
            assert sub.stats.counter("reads_serviced").value == 1

    def test_full_subchannel_holds_and_drains(self):
        params = ChannelParams(read_queue_depth=2, write_queue_depth=2,
                               write_drain_hi=2, write_drain_lo=1)
        eng, bob, subs = make_bob(params=params, window=64)
        done = []
        for i in range(8):
            bob.enqueue(MemRequest(OpType.READ, 0, 0, 0, i, 0, 0,
                                   on_complete=lambda t: done.append(t)))
        eng.run()
        assert len(done) == 8  # held packets eventually serviced

    def test_requires_subchannel(self):
        with pytest.raises(ValueError):
            BobChannel(Engine(), 0, [])


class TestRawPipes:
    def test_send_down_and_up(self):
        eng, bob, _ = make_bob()
        seen = []
        bob.send_down(72, lambda t: seen.append(("down", t)))
        bob.send_up(16, lambda t: seen.append(("up", t)))
        eng.run()
        # The directions are independent links: the shorter up packet
        # lands first even though it was queued second.
        assert sorted(s[0] for s in seen) == ["down", "up"]
        assert bob.stats.counter("raw_down").value == 1
        assert bob.stats.counter("raw_up").value == 1

    def test_raw_and_normal_share_link_bandwidth(self):
        eng, bob, _ = make_bob()
        order = []
        bob.send_down(72, lambda t: order.append(("raw", t)))
        bob.enqueue(MemRequest(OpType.READ, 0, 0, 0, 0, 0, 0))
        eng.run()
        # The read's 16 B packet serialized after the raw 72 B one.
        raw_time = order[0][1]
        assert raw_time == LinkParams().serialization(72) + LinkParams().latency
