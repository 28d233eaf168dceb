"""Property-based tests (hypothesis) on the ORAM core invariants."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.codec import EncryptedBucketCodec
from repro.oram.config import OramConfig
from repro.oram.path_oram import PathOram
from repro.oram.protocol import greedy_evict
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from tests.oram.tree_reference import leaf_range

SMALL = OramConfig(leaf_level=5, treetop_levels=1, subtree_levels=2)

# Operation: (block_id_fraction, is_write, byte_value)
ops_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.999),
        st.booleans(),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_oram_behaves_like_a_dict(ops, seed):
    """Reads always return the most recent write (or zeros)."""
    oram = PathOram(SMALL, seed=seed)
    reference = {}
    n = oram.config.num_user_blocks
    for frac, is_write, value in ops:
        block = int(frac * n)
        if is_write:
            data = bytes([value]) * 64
            oram.write(block, data)
            reference[block] = data
        else:
            assert oram.read(block) == reference.get(block, bytes(64))
    oram.check_invariants()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_oram_invariants_with_encryption(ops, seed):
    """The dict property survives the encrypted bucket codec."""
    oram = PathOram(SMALL, seed=seed,
                    codec=EncryptedBucketCodec(b"K" * 16))
    reference = {}
    n = oram.config.num_user_blocks
    for frac, is_write, value in ops[:30]:
        block = int(frac * n)
        if is_write:
            data = bytes([value]) * 64
            oram.write(block, data)
            reference[block] = data
        else:
            assert oram.read(block) == reference.get(block, bytes(64))
    oram.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    leaf_level=st.integers(min_value=1, max_value=8),
    leaves=st.data(),
)
def test_greedy_evict_never_misplaces(leaf_level, leaves):
    """Eviction plans always respect path membership and Z."""
    cfg = OramConfig(leaf_level=leaf_level, treetop_levels=0,
                     subtree_levels=1)
    geometry = TreeGeometry(cfg)
    stash = Stash(capacity=None)
    count = leaves.draw(st.integers(min_value=0, max_value=30))
    for i in range(count):
        leaf = leaves.draw(st.integers(min_value=0,
                                       max_value=cfg.num_leaves - 1))
        stash.put(i, leaf, None)
    target = leaves.draw(st.integers(min_value=0,
                                     max_value=cfg.num_leaves - 1))
    plan = greedy_evict(geometry, stash, target, cfg.bucket_size)

    placed = [b for ids in plan.values() for b in ids]
    assert len(placed) == len(set(placed))
    for bucket, ids in plan.items():
        assert len(ids) <= cfg.bucket_size
        level = geometry.level_of(bucket)
        for block_id in ids:
            leaf = stash.get(block_id)[0]
            assert geometry.bucket_on_path(leaf, level) == bucket


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=1, max_value=120),
)
def test_stash_bounded_under_uniform_load(seed, n_ops):
    """Stash occupancy stays far below the theoretical alarm line."""
    oram = PathOram(SMALL, seed=seed, stash_capacity=120)
    rng = random.Random(seed)
    for _ in range(n_ops):
        oram.read(rng.randrange(oram.config.num_user_blocks))
    assert oram.stash.peak <= 60


@settings(max_examples=40, deadline=None)
@given(
    key_byte=st.integers(min_value=0, max_value=255),
    blocks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000),
                  st.integers(min_value=0, max_value=63),
                  st.binary(min_size=64, max_size=64)),
        max_size=4, unique_by=lambda t: t[0],
    ),
    bucket=st.integers(min_value=1, max_value=10_000),
)
def test_codec_round_trip_property(key_byte, blocks, bucket):
    codec = EncryptedBucketCodec(bytes([key_byte]) * 16)
    raw = codec.encode_bucket(bucket, blocks, 4, 64)
    assert codec.decode_bucket(bucket, raw, 4, 64) == blocks
    # Image size never varies with content.
    assert len(raw) == codec.image_bytes(4, 64)


@settings(max_examples=60, deadline=None)
@given(
    leaf_level=st.integers(min_value=2, max_value=10),
    leaf_frac=st.floats(min_value=0.0, max_value=0.999),
    level_frac=st.floats(min_value=0.0, max_value=0.999),
)
def test_bucket_on_path_consistent_with_leaf_range(
    leaf_level, leaf_frac, level_frac
):
    """A leaf's path bucket at level l always contains that leaf's range."""
    cfg = OramConfig(leaf_level=leaf_level, treetop_levels=0,
                     subtree_levels=1)
    g = TreeGeometry(cfg)
    leaf = int(leaf_frac * cfg.num_leaves)
    level = int(level_frac * (leaf_level + 1))
    bucket = g.bucket_on_path(leaf, level)
    assert leaf in leaf_range(g, bucket)
    assert g.level_of(bucket) == level
