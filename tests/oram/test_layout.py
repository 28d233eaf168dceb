"""Physical tree layout: subtree packing, tree-top cache, k-split."""

import pytest

from repro.oram.config import OramConfig
from repro.oram.layout import OramLayout
from tests.oram.tree_reference import buckets_at_level, is_cached

HOME = [(0, 0), (0, 1), (0, 2), (0, 3)]
REMOTE = [(1, 0), (2, 0), (3, 0)]


def make_layout(leaf_level=9, treetop=3, subtree=3, split_k=0):
    cfg = OramConfig(leaf_level=leaf_level, treetop_levels=treetop,
                     subtree_levels=subtree)
    return OramLayout(
        cfg, HOME,
        home_levels=cfg.num_levels - split_k,
        remote_targets=REMOTE if split_k else (),
    ), cfg


class TestTreeTopCache:
    def test_cached_buckets_have_no_placement(self):
        layout, cfg = make_layout()
        for level in range(cfg.treetop_levels):
            for bucket in buckets_at_level(layout.tree, level):
                assert is_cached(layout, bucket)
                assert layout.place(bucket, 0) is None

    def test_uncached_buckets_place(self):
        layout, cfg = make_layout()
        bucket = 1 << cfg.treetop_levels  # first uncached bucket
        assert layout.place(bucket, 0) is not None

    def test_path_placements_skip_cached_levels(self):
        layout, cfg = make_layout()
        placements = layout.path_placements(0)
        expected = (cfg.num_levels - cfg.treetop_levels) * cfg.bucket_size
        assert len(placements) == expected


class TestSlotStriping:
    def test_slots_stripe_across_subchannels(self):
        layout, cfg = make_layout()
        bucket = 1 << cfg.treetop_levels
        targets = [
            (layout.place(bucket, s).channel, layout.place(bucket, s).subchannel)
            for s in range(4)
        ]
        assert targets == HOME

    def test_placements_unique(self):
        layout, cfg = make_layout()
        seen = set()
        for bucket in layout.tree.iter_buckets():
            if is_cached(layout, bucket):
                continue
            for slot in range(cfg.bucket_size):
                p = layout.place(bucket, slot)
                key = (p.channel, p.subchannel, p.bank, p.row, p.col)
                assert key not in seen, f"collision at bucket {bucket}"
                seen.add(key)

    def test_slot_out_of_range(self):
        layout, _ = make_layout()
        with pytest.raises(ValueError):
            layout.place(8, 4)


class TestSubtreePacking:
    def test_packed_indices_are_a_permutation(self):
        layout, cfg = make_layout()
        indices = [
            layout.packed_index(b) for b in layout.tree.iter_buckets()
            if not is_cached(layout, b)
        ]
        assert sorted(indices) == list(range(len(indices)))

    def test_subtree_buckets_contiguous(self):
        # All buckets of one subtree occupy a contiguous index range of
        # size (2^h - 1) -- the property that creates row-buffer hits.
        layout, cfg = make_layout(leaf_level=8, treetop=3, subtree=3)
        subtree_size = (1 << 3) - 1
        root = 1 << 3  # first subtree root at level 3
        members = [root]
        for depth in range(1, 3):
            members.extend(range(root << depth, (root << depth) + (1 << depth)))
        indices = sorted(layout.packed_index(b) for b in members)
        assert indices == list(range(indices[0], indices[0] + subtree_size))

    def test_path_in_subtree_is_dense(self):
        # A path's buckets inside one subtree sit within the subtree's
        # small index window -> same DRAM row per sub-channel.
        layout, cfg = make_layout(leaf_level=8, treetop=3, subtree=3)
        path = layout.tree.path_buckets(37)
        in_first_segment = [b for b in path
                            if 3 <= layout.tree.level_of(b) < 6]
        idx = [layout.packed_index(b) for b in in_first_segment]
        assert max(idx) - min(idx) < (1 << 3) - 1

    def test_row_locality_of_path(self):
        # With 7-level subtrees and 128-line rows, one path's blocks per
        # sub-channel fall into few distinct rows.
        cfg = OramConfig(leaf_level=16, treetop_levels=3, subtree_levels=7)
        layout = OramLayout(cfg, HOME)
        placements = [p for p in layout.path_placements(12345)
                      if (p.channel, p.subchannel) == (0, 0)]
        rows = {(p.bank, p.row) for p in placements}
        # 14 blocks on sub-channel 0 (2 subtree segments) -> ~2-4 rows.
        assert len(rows) <= 5


class TestSplit:
    def test_home_levels_stay_local(self):
        layout, cfg = make_layout(split_k=2)
        for bucket in buckets_at_level(layout.tree, cfg.leaf_level - 2):
            p = layout.place(bucket, 0)
            assert not p.remote
            assert p.channel == 0

    def test_split_levels_are_remote(self):
        layout, cfg = make_layout(split_k=2)
        for bucket in list(buckets_at_level(layout.tree, cfg.leaf_level))[:16]:
            for slot in range(4):
                p = layout.place(bucket, slot)
                assert p.remote
                assert p.channel in (1, 2, 3)

    def test_first_block_rotates_channels(self):
        # Fig. 7: slot 0 of consecutive relocated buckets alternates
        # across the three normal channels.
        layout, cfg = make_layout(split_k=1)
        level = cfg.leaf_level
        buckets = list(buckets_at_level(layout.tree, level))[:6]
        chans = [layout.place(b, 0).channel for b in buckets]
        assert chans == [1, 2, 3, 1, 2, 3]

    def test_fixed_slots_map_to_fixed_channels(self):
        layout, cfg = make_layout(split_k=1)
        bucket = next(iter(buckets_at_level(layout.tree, cfg.leaf_level)))
        assert layout.place(bucket, 1).channel == 1
        assert layout.place(bucket, 2).channel == 2
        assert layout.place(bucket, 3).channel == 3

    def test_remote_placements_unique(self):
        layout, cfg = make_layout(leaf_level=7, treetop=2, subtree=3,
                                  split_k=2)
        seen = set()
        for level in (cfg.leaf_level - 1, cfg.leaf_level):
            for bucket in buckets_at_level(layout.tree, level):
                for slot in range(4):
                    p = layout.place(bucket, slot)
                    key = (p.channel, p.subchannel, p.bank, p.row, p.col)
                    assert key not in seen
                    seen.add(key)

    def test_channel_share_matches_table1(self):
        for k, secure_expected, normal_expected in (
            (1, 0.500, 0.167), (2, 0.250, 0.250), (3, 0.125, 0.292),
        ):
            cfg = OramConfig(leaf_level=12 + k, treetop_levels=3,
                             subtree_levels=5)
            layout = OramLayout(cfg, HOME,
                                home_levels=cfg.num_levels - k,
                                remote_targets=REMOTE)
            shares = layout.channel_share()
            assert shares[0] == pytest.approx(secure_expected, abs=0.01)
            for ch in (1, 2, 3):
                assert shares[ch] == pytest.approx(normal_expected, abs=0.01)

    def test_split_requires_remote_targets(self):
        cfg = OramConfig(leaf_level=6, treetop_levels=2, subtree_levels=3)
        with pytest.raises(ValueError):
            OramLayout(cfg, HOME, home_levels=cfg.num_levels - 1)
