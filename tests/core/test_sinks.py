"""DirectChannelSink (on-chip baseline ORAM traffic routing)."""

from repro.core.sinks import DirectChannelSink
from repro.dram.channel import Channel
from repro.dram.commands import OpType, TrafficClass
from repro.dram.timing import ChannelParams
from repro.oram.layout import BlockPlacement
from repro.sim.engine import Engine


def make_sink(depth=64):
    eng = Engine()
    params = ChannelParams(read_queue_depth=depth, write_queue_depth=depth,
                           write_drain_hi=min(40, depth),
                           write_drain_lo=min(16, depth - 1))
    channels = {
        (ch, 0): Channel(eng, f"ch{ch}", params=params) for ch in range(4)
    }
    return eng, channels, DirectChannelSink(channels, app_id=9)


def placement(channel=0, bank=0, row=0):
    return BlockPlacement(bucket=8, slot=0, channel=channel, subchannel=0,
                          bank=bank, row=row, col=0, remote=False)


class TestDirectChannelSink:
    def test_issue_routes_to_placement_channel(self):
        eng, channels, sink = make_sink()
        done = []
        stalled, owed = sink.issue_phase(
            [placement(channel=2)], OpType.READ, done.append
        )
        assert (stalled, owed) == ([], 1)
        eng.run()
        assert channels[(2, 0)].stats.counter("reads_serviced").value == 1
        assert len(done) == 1

    def test_traffic_tagged_secure(self):
        eng, channels, sink = make_sink()
        sink.issue_phase([placement()], OpType.READ, lambda t: None)
        eng.run()
        assert channels[(0, 0)].stats.latency(
            "secure_read_latency").count == 1

    def test_full_queue_returns_false(self):
        eng, channels, sink = make_sink(depth=2)
        blocks = [placement(row=row) for row in range(3)]
        stalled, owed = sink.issue_phase(blocks, OpType.READ, lambda t: None)
        # The queue takes the first two; a stalled issue keeps one
        # completion per accepted block.
        assert stalled == blocks[2:]
        assert owed == 2

    def test_notify_on_space_fires_once(self):
        eng, channels, sink = make_sink(depth=2)
        sink.issue_phase([placement(row=0), placement(row=1)], OpType.READ,
                         lambda t: None)
        woken = []
        sink.notify_on_space(lambda: woken.append(eng.now))
        eng.run()
        assert len(woken) == 1  # the once-guard deduplicates channels
