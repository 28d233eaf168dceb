"""Serial link: serialization, FIFO ordering, latency."""

import pytest

from repro.bob.link import LinkParams, SerialLink
from repro.sim.engine import Engine, ns


class TestLinkParams:
    def test_serialization_of_72b_packet(self):
        # 72 B at 12.8 B/ns = 5.625 ns = 90 ticks.
        assert LinkParams().serialization(72) == 90

    def test_serialization_of_short_packet(self):
        assert LinkParams().serialization(16) == ns(1.25)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            LinkParams().serialization(0)

    def test_default_one_way_latency(self):
        # Half the paper's 15 ns round-trip figure.
        assert LinkParams().latency == ns(7.5)


class TestSerialLink:
    def test_delivery_time(self):
        eng = Engine()
        link = SerialLink(eng, "l")
        arrivals = []
        t = link.send(72, arrivals.append)
        eng.run()
        assert arrivals == [t]
        assert t == LinkParams().serialization(72) + LinkParams().latency

    def test_fifo_serialization(self):
        eng = Engine()
        link = SerialLink(eng, "l")
        arrivals = []
        link.send(72, lambda t: arrivals.append(("a", t)))
        link.send(72, lambda t: arrivals.append(("b", t)))
        eng.run()
        assert arrivals[0][0] == "a"
        # Second packet waits for the first to clock out.
        assert arrivals[1][1] - arrivals[0][1] == LinkParams().serialization(72)

    def test_stats(self):
        eng = Engine()
        link = SerialLink(eng, "l")
        link.send(72, lambda t: None)
        link.send(16, lambda t: None)
        eng.run()
        assert link.stats.counter("packets").value == 2
        assert link.stats.counter("bytes").value == 88
