"""Position maps: dense and lazy."""

import pytest

from repro.oram.position_map import DensePositionMap, LazyPositionMap


class TestDense:
    def test_lookup_in_range(self):
        pm = DensePositionMap(100, 16, seed=1)
        assert all(0 <= pm.lookup(b) < 16 for b in range(100))

    def test_remap_changes_distribution(self):
        pm = DensePositionMap(1, 1 << 20, seed=1)
        old = pm.lookup(0)
        news = {pm.remap(0) for _ in range(5)}
        assert news != {old}

    def test_remap_persists(self):
        pm = DensePositionMap(10, 64, seed=2)
        leaf = pm.remap(3)
        assert pm.lookup(3) == leaf

    def test_seeded_reproducible(self):
        a = DensePositionMap(50, 32, seed=9)
        b = DensePositionMap(50, 32, seed=9)
        assert [a.lookup(i) for i in range(50)] == \
               [b.lookup(i) for i in range(50)]

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            DensePositionMap(10, 0)


class TestLazy:
    def test_first_touch_assignment_stable(self):
        pm = LazyPositionMap(1 << 30, 1 << 23, seed=1)
        leaf = pm.lookup(12345)
        assert pm.lookup(12345) == leaf

    def test_memory_proportional_to_touched(self):
        pm = LazyPositionMap(1 << 30, 1 << 23, seed=1)
        for b in range(100):
            pm.lookup(b)
        assert len(pm._map) == 100
        assert len(pm) == 1 << 30

    def test_remap_materializes(self):
        pm = LazyPositionMap(1000, 64, seed=3)
        pm.remap(7)
        assert len(pm._map) == 1

    def test_range_checked(self):
        pm = LazyPositionMap(10, 64, seed=1)
        with pytest.raises(ValueError):
            pm.lookup(10)
        with pytest.raises(ValueError):
            pm.remap(-1)

    def test_leaves_uniformish(self):
        pm = LazyPositionMap(4000, 4, seed=5)
        counts = [0, 0, 0, 0]
        for b in range(4000):
            counts[pm.lookup(b)] += 1
        assert min(counts) > 800  # each leaf ~1000 +- noise
