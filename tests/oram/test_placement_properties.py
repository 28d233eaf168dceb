"""Path placement against a per-bucket reference, memoized or not.

``OramLayout`` places a path in one pass and memoizes a bucket's
placements only on the levels numbered below ``treetop_levels +
subtree_levels``.  Over random geometries (tree-top depth, subtree
height, split depth, home targets, Z) and random leaves, every placement
form -- ``path_placements``, ``lane_share(leaf).expand()`` and
``bucket_placements`` -- must equal a reference built one block at a
time from ``packed_index``, ``decode_line`` and the Fig. 7 remote rule,
whether it is placed afresh or served from a memo, and no memo may hold
a bucket at or past the bound.
"""

from hypothesis import given, settings, strategies as st

from repro.dram.address_mapping import decode_line
from repro.oram.config import OramConfig
from repro.oram.layout import OramLayout

REMOTE = [(1, 0), (2, 0), (3, 0)]


@st.composite
def _geometries(draw):
    treetop = draw(st.integers(0, 6))
    subtree = draw(st.integers(1, 7))
    split_k = draw(st.integers(0, 3))
    lanes = draw(st.sampled_from([1, 2, 4]))
    bucket_size = draw(st.sampled_from([4, 8]))
    # The home region must reach the tree-top levels' end.
    leaf_level = draw(st.integers(max(treetop + split_k - 1, 0), 16))
    config = OramConfig(leaf_level=leaf_level, bucket_size=bucket_size,
                        treetop_levels=treetop, subtree_levels=subtree)
    return config, split_k, lanes


def _layout(config, split_k, lanes):
    return OramLayout(
        config, [(0, i) for i in range(lanes)],
        home_levels=config.num_levels - split_k,
        remote_targets=REMOTE if split_k else (),
    )


def _fields(placement):
    return (placement.bucket, placement.slot, placement.channel,
            placement.subchannel, placement.bank, placement.row,
            placement.col, placement.remote, placement.target)


def _remote_bases(layout):
    """Per relocated level: the slot-j region's base line, then the
    rotated slot-0 region's, stacked level by level on every target."""
    bases = {}
    cursor = layout.remote_base_line
    for level in range(layout.home_levels, layout.config.num_levels):
        buckets = 1 << level
        bases[level] = (cursor, cursor + buckets)
        cursor += buckets + -(-buckets // len(REMOTE))
    return bases


def _reference(layout, bucket):
    """One bucket's placements, one block at a time."""
    config = layout.config
    level = bucket.bit_length() - 1
    if level < config.treetop_levels:
        return []
    out = []
    if level < layout.home_levels:
        lanes = len(layout.home_targets)
        per_target = -(-config.bucket_size // lanes)
        for slot in range(config.bucket_size):
            line = (layout.base_line
                    + layout.packed_index(bucket) * per_target
                    + slot // lanes)
            target = layout.home_targets[slot % lanes]
            out.append((bucket, slot, *target,
                        *decode_line(line, layout.device), False, target))
        return out
    slot_base, rot_base = _remote_bases(layout)[level]
    index = bucket - (1 << level)
    for slot in range(config.bucket_size):
        if slot == 0:
            # Fig. 7: block 0 rotates across the normal channels.
            target = REMOTE[index % len(REMOTE)]
            line = rot_base + index // len(REMOTE)
        else:
            target = REMOTE[(slot - 1) % len(REMOTE)]
            line = slot_base + index
        out.append((bucket, slot, *target,
                    *decode_line(line, layout.device), True, None))
    return out


def _check_path(layout, leaf):
    """``path_placements`` and (mirroring layouts) the lane share."""
    expected = [row for bucket in layout.tree.path_buckets(leaf)
                for row in _reference(layout, bucket)]
    assert [_fields(p) for p in layout.path_placements(leaf)] == expected
    if layout.mirrors:
        share = layout.lane_share(leaf)
        assert [_fields(p) for p in share.expand()] == expected
        # The share itself: a home line's first block, every remote one.
        lanes = len(layout.home_targets)
        assert [_fields(p) for p in share] == [
            row for row in expected if row[7] or row[1] % lanes == 0
        ]


def _check_buckets(layout, leaf):
    """``bucket_placements`` of every bucket on the path."""
    for bucket in layout.tree.path_buckets(leaf):
        assert [_fields(p) for p in layout.bucket_placements(bucket)] == \
            _reference(layout, bucket)


def _check_memo_bound(layout):
    config = layout.config
    bound = 1 << (config.treetop_levels + config.subtree_levels)
    for memo in (layout._bucket_cache, layout._lane_cache):
        assert all(bucket < bound for bucket in memo)


@settings(max_examples=60, deadline=None)
@given(geometry=_geometries(), data=st.data())
def test_every_form_matches_the_reference(geometry, data):
    layout = _layout(*geometry)
    leaves = st.integers(0, layout.config.num_leaves - 1)
    leaf = data.draw(leaves)
    # The path placed afresh, then its memoized buckets served from the
    # memos the first query filled.
    _check_path(layout, leaf)
    _check_buckets(layout, leaf)
    _check_path(layout, leaf)
    # Another leaf shares the top of the path with the first.
    other = data.draw(leaves)
    _check_path(layout, other)
    _check_buckets(layout, other)
    _check_memo_bound(layout)
    # The other order: buckets placed afresh, then the path from them.
    fresh = _layout(*geometry)
    _check_buckets(fresh, leaf)
    _check_path(fresh, leaf)
    _check_memo_bound(fresh)
