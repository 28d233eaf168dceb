"""ORAM tree geometry arithmetic."""

import pytest

from repro.oram.config import OramConfig
from repro.oram.tree import TreeGeometry
from tests.oram.tree_reference import buckets_at_level, leaf_range


def geometry(leaf_level=4):
    return TreeGeometry(OramConfig(
        leaf_level=leaf_level, treetop_levels=0, subtree_levels=2,
    ))


class TestConfigGeometry:
    def test_paper_defaults(self):
        cfg = OramConfig()
        assert cfg.num_levels == 24
        assert cfg.num_leaves == 1 << 23
        assert cfg.num_buckets == (1 << 24) - 1
        # "one phase accesses ... 21x4 blocks if top 3 cached" (II-B1).
        assert cfg.levels_fetched == 21
        assert cfg.blocks_per_phase == 84

    def test_4gb_tree(self):
        cfg = OramConfig()
        assert cfg.tree_bytes == pytest.approx(4 * 2**30, rel=0.01)

    def test_user_blocks_half_capacity(self):
        cfg = OramConfig()
        assert cfg.num_user_blocks == cfg.capacity_blocks // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            OramConfig(leaf_level=-1)
        with pytest.raises(ValueError):
            OramConfig(treetop_levels=99)
        with pytest.raises(ValueError):
            OramConfig(utilization=0.0)


class TestPaths:
    def test_root_is_bucket_one(self):
        g = geometry()
        assert g.path_buckets(0)[0] == 1

    def test_path_length(self):
        g = geometry(leaf_level=4)
        assert len(g.path_buckets(7)) == 5

    def test_leaf_bucket_index(self):
        g = geometry(leaf_level=4)
        assert g.path_buckets(7)[-1] == (1 << 4) + 7

    def test_path_is_parent_chain(self):
        g = geometry(leaf_level=6)
        path = g.path_buckets(37)
        for parent, child in zip(path, path[1:]):
            assert child // 2 == parent

    def test_bucket_on_path_matches_full_path(self):
        g = geometry(leaf_level=5)
        for leaf in (0, 13, 31):
            path = g.path_buckets(leaf)
            for level, bucket in enumerate(path):
                assert g.bucket_on_path(leaf, level) == bucket

    def test_level_of(self):
        g = geometry(leaf_level=4)
        assert g.level_of(1) == 0
        assert g.level_of(2) == 1
        assert g.level_of(3) == 1
        assert g.level_of(16) == 4

    def test_on_same_path(self):
        g = geometry(leaf_level=3)
        # Leaves 0 and 1 share everything except the leaf level.
        assert g.on_same_path(0, 1, 2)
        assert not g.on_same_path(0, 1, 3)
        # Leaves 0 and 7 share only the root.
        assert g.on_same_path(0, 7, 0)
        assert not g.on_same_path(0, 7, 1)

    def test_leaf_range(self):
        g = geometry(leaf_level=3)
        assert list(leaf_range(g, 1)) == list(range(8))
        assert list(leaf_range(g, 2)) == [0, 1, 2, 3]
        assert list(leaf_range(g, 3)) == [4, 5, 6, 7]
        assert list(leaf_range(g, 8)) == [0]

    def test_buckets_at_level(self):
        g = geometry(leaf_level=3)
        assert list(buckets_at_level(g, 0)) == [1]
        assert list(buckets_at_level(g, 2)) == [4, 5, 6, 7]

    def test_bounds_checked(self):
        g = geometry(leaf_level=3)
        with pytest.raises(ValueError):
            g.path_buckets(8)
        with pytest.raises(ValueError):
            g.bucket_on_path(0, 4)
        with pytest.raises(ValueError):
            g.level_of(0)
        with pytest.raises(ValueError):
            g.level_of(16)
