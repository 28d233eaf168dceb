"""NS-App routers: address striping and backpressure."""

from repro.bob.channel import BobChannel
from repro.core.system import APP_SLICE_LINES, NsRouter
from repro.dram.address_mapping import DeviceGeometry, decode_line
from repro.dram.channel import Channel
from repro.dram.commands import OpType
from repro.sim.engine import Engine


def direct_setup(targets=((0, 0), (1, 0), (2, 0), (3, 0))):
    eng = Engine()
    channels = {(ch, 0): Channel(eng, f"ch{ch}") for ch in range(4)}
    router = NsRouter.direct(eng, channels, list(targets), app_id=0,
                             app_slot=0)
    return eng, channels, router


def bob_setup(allowed=(0, 1, 2, 3), secure_subs=4):
    eng = Engine()
    bobs = {}
    for ch in range(4):
        nsub = secure_subs if ch == 0 else 1
        bobs[ch] = BobChannel(
            eng, ch, [Channel(eng, f"ch{ch}.{i}") for i in range(nsub)]
        )
    router = NsRouter.bob(eng, bobs, allowed, app_id=0, app_slot=0)
    return eng, bobs, router


class TestDirectRouter:
    """``NsRouter.direct``: the router over direct-attached channels."""

    def test_lines_stripe_across_targets(self):
        eng, channels, router = direct_setup()
        for line in range(8):
            router.issue(OpType.READ, line, 0, None)
        eng.run()
        for ch in range(4):
            assert channels[(ch, 0)].stats.counter(
                "reads_serviced").value == 2

    def test_restricted_targets(self):
        eng, channels, router = direct_setup(targets=((1, 0), (2, 0)))
        for line in range(6):
            router.issue(OpType.READ, line, 0, None)
        eng.run()
        assert channels[(0, 0)].stats.counter("reads_serviced").value == 0
        assert channels[(1, 0)].stats.counter("reads_serviced").value == 3

    def test_latency_recorded(self):
        eng, channels, router = direct_setup()
        router.issue(OpType.READ, 0, 0, None)
        router.issue(OpType.WRITE, 1, 0, None)
        eng.run()
        assert router.stats.latency("read_latency").count == 1
        assert router.stats.latency("write_latency").count == 1

    def test_completion_callback(self):
        eng, _, router = direct_setup()
        done = []
        router.issue(OpType.READ, 5, 0, done.append)
        eng.run()
        assert len(done) == 1


class TestBobRouter:
    """``NsRouter.bob``: the router over BOB channels."""

    def test_channel_striping(self):
        eng, bobs, router = bob_setup()
        assert [router.line_map(line)[0] for line in range(8)] == \
               [0, 1, 2, 3, 0, 1, 2, 3]

    def test_secure_channel_subchannel_striping(self):
        eng, bobs, router = bob_setup()
        # Lines mapping to channel 0 (line % 4 == 0) rotate over its
        # four sub-channels.
        subs = [router.line_map(line)[1] for line in range(0, 32, 4)]
        assert subs == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_normal_channels_single_subchannel(self):
        eng, bobs, router = bob_setup()
        for line in range(1, 32, 4):  # channel 1
            assert router.line_map(line)[1] == 0

    def test_exclusion_of_secure_channel(self):
        eng, bobs, router = bob_setup(allowed=(1, 2, 3))
        channels_used = {router.line_map(line)[0] for line in range(30)}
        assert channels_used == {1, 2, 3}

    def test_base_line_offsets(self):
        eng, bobs, _ = bob_setup()
        router_a = NsRouter.bob(eng, bobs, (0, 1, 2, 3), app_id=0, app_slot=0)
        router_b = NsRouter.bob(eng, bobs, (0, 1, 2, 3), app_id=1, app_slot=1)
        coords_a = router_a.line_map(0)
        coords_b = router_b.line_map(0)
        assert coords_a != coords_b
        assert coords_b[2:] == decode_line(APP_SLICE_LINES, DeviceGeometry())

    def test_end_to_end_read(self):
        eng, bobs, router = bob_setup()
        done = []
        router.issue(OpType.READ, 3, 0, done.append)
        eng.run()
        assert len(done) == 1
        assert router.stats.latency("read_latency").count == 1
