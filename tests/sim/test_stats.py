"""Statistics primitives."""

import math

import pytest

from repro.sim.stats import Counter, Histogram, LatencyStat, StatSet, geomean


class TestCounter:
    def test_add_default(self):
        c = Counter("x")
        c.add()
        c.add()
        assert c.value == 2

    def test_add_amount(self):
        c = Counter("x")
        c.add(10)
        assert c.value == 10


class TestLatencyStat:
    def test_mean_min_max(self):
        stat = LatencyStat("lat")
        for v in (10, 20, 30):
            stat.record(v)
        assert stat.count == 3
        assert stat.mean == 20
        assert stat.min == 10
        assert stat.max == 30

    def test_empty_mean_is_zero(self):
        assert LatencyStat("lat").mean == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStat("lat").record(-1)

    def test_merge(self):
        a, b = LatencyStat("a"), LatencyStat("b")
        a.record(10)
        b.record(30)
        b.record(50)
        a.merge(b)
        assert a.count == 3
        assert a.total == 90
        assert a.min == 10
        assert a.max == 50

    def test_merge_empty_keeps_bounds(self):
        a, b = LatencyStat("a"), LatencyStat("b")
        a.record(5)
        a.merge(b)
        assert (a.min, a.max, a.count) == (5, 5, 1)


class TestHistogram:
    def test_bucket_width(self):
        h = Histogram("h", bucket_width=10)
        for v in (1, 5, 11, 25):
            h.record(v)
        assert h.buckets == {0: 2, 1: 1, 2: 1}

    def test_quantile(self):
        h = Histogram("h")
        for v in range(100):
            h.record(v)
        assert h.quantile(0.5) == 49
        assert h.quantile(1.0) == 99

    def test_quantile_empty(self):
        assert Histogram("h").quantile(0.5) == 0

    def test_quantile_range_check(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_max_value(self):
        h = Histogram("h", bucket_width=4)
        h.record(13)
        assert h.max_value == 12  # lower edge of the bucket

    def test_bad_width(self):
        with pytest.raises(ValueError):
            Histogram("h", bucket_width=0)


class TestStatSet:
    def test_lazy_creation_and_reuse(self):
        stats = StatSet("owner")
        assert stats.counter("a") is stats.counter("a")
        assert stats.latency("l") is stats.latency("l")

    def test_as_dict(self):
        stats = StatSet("owner")
        stats.counter("hits").add(3)
        stats.latency("lat").record(10)
        stats.latency("lat").record(30)
        for v in (5, 5, 5, 9):
            stats.histogram("depth").record(v)
        d = stats.as_dict()
        assert d["hits"] == 3
        assert d["lat.count"] == 2
        assert d["lat.mean"] == 20
        assert d["lat.min"] == 10
        assert d["lat.max"] == 30
        assert d["depth.count"] == 4
        assert d["depth.max"] == 9
        assert d["depth.p50"] == 5
        assert d["depth.p99"] == 9

    def test_as_dict_empty_latency(self):
        stats = StatSet("owner")
        stats.latency("lat")  # created but never recorded
        d = stats.as_dict()
        assert d["lat.count"] == 0
        assert d["lat.min"] == 0
        assert d["lat.max"] == 0

    def test_names_carry_owner(self):
        stats = StatSet("ch0")
        assert stats.counter("reads").name == "ch0.reads"

    def test_copy_is_independent_and_renamed(self):
        """A lane group's wake gives each follower this copy."""
        stats = StatSet("ch0.0")
        stats.latency("lat").record(10)
        stats.counter("hits").add(3)
        stats.histogram("depth", 2).record(5)
        stats.histogram("depth", 2).record(-3)
        copy = stats.copy("ch0.1")
        assert copy.as_dict() == stats.as_dict()
        assert list(copy.as_dict()) == list(stats.as_dict())
        assert copy.histogram("depth", 2).buckets == \
            stats.histogram("depth", 2).buckets
        assert copy.owner == "ch0.1"
        assert copy.latency("lat").name == "ch0.1.lat"
        assert copy.histogram("depth").name == "ch0.1.depth"
        copy.counter("hits").add(1)
        copy.latency("lat").record(50)
        copy.histogram("depth").record(5)
        assert stats.as_dict()["hits"] == 3
        assert stats.as_dict()["lat.max"] == 10
        assert stats.as_dict()["depth.count"] == 2


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)

    def test_singleton(self):
        assert geomean([3.5]) == pytest.approx(3.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_matches_log_definition(self):
        vals = [1.1, 2.3, 0.7, 5.0]
        expected = math.exp(sum(math.log(v) for v in vals) / 4)
        assert geomean(vals) == pytest.approx(expected)
