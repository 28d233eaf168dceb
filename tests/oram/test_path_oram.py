"""Functional Path ORAM: correctness, invariants, obliviousness."""

import random

import pytest

from repro.crypto.codec import CodecError, EncryptedBucketCodec
from repro.oram.config import OramConfig
from repro.oram.path_oram import PathOram
from repro.oram.stash import StashOverflow
from tests.crypto.plain_codec import PlainCodec


def small_config(leaf_level=6):
    return OramConfig(leaf_level=leaf_level, treetop_levels=2,
                      subtree_levels=3)


def make_oram(leaf_level=6, **kw):
    return PathOram(small_config(leaf_level), seed=7, **kw)


class TestCorrectness:
    def test_unwritten_block_reads_zero(self):
        oram = make_oram()
        assert oram.read(0) == bytes(64)

    def test_read_returns_last_write(self):
        oram = make_oram()
        oram.write(3, b"\x42" * 64)
        assert oram.read(3) == b"\x42" * 64

    def test_overwrite(self):
        oram = make_oram()
        oram.write(3, b"\x01" * 64)
        oram.write(3, b"\x02" * 64)
        assert oram.read(3) == b"\x02" * 64

    def test_blocks_independent(self):
        oram = make_oram()
        oram.write(1, b"\xAA" * 64)
        oram.write(2, b"\xBB" * 64)
        assert oram.read(1) == b"\xAA" * 64
        assert oram.read(2) == b"\xBB" * 64

    def test_many_random_operations(self):
        oram = make_oram()
        rng = random.Random(0)
        reference = {}
        for _ in range(400):
            block = rng.randrange(oram.config.num_user_blocks)
            if rng.random() < 0.5:
                data = bytes([rng.randrange(256)]) * 64
                oram.write(block, data)
                reference[block] = data
            else:
                assert oram.read(block) == reference.get(block, bytes(64))
        oram.check_invariants()

    def test_wrong_data_size_rejected(self):
        with pytest.raises(ValueError):
            make_oram().write(0, b"short")

    def test_block_id_range_checked(self):
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.read(oram.config.num_user_blocks)

    def test_large_functional_tree_rejected(self):
        with pytest.raises(ValueError, match="timing controller"):
            PathOram(OramConfig())  # L=23 must not materialize


class TestInvariants:
    def test_invariants_hold_after_burst(self):
        oram = make_oram()
        rng = random.Random(3)
        for _ in range(100):
            oram.write(rng.randrange(oram.config.num_user_blocks),
                       bytes([rng.randrange(256)]) * 64)
            oram.check_invariants()

    def test_stash_stays_bounded(self):
        oram = make_oram()
        rng = random.Random(5)
        for _ in range(600):
            oram.read(rng.randrange(oram.config.num_user_blocks))
        # Z=4, 50 % utilization: the stash stays tiny in practice.
        assert oram.stash.peak < 60

    def test_dummy_access_preserves_state(self):
        oram = make_oram()
        oram.write(9, b"\x33" * 64)
        for _ in range(20):
            oram.dummy_access()
        oram.check_invariants()
        assert oram.read(9) == b"\x33" * 64

    def test_stash_overflow_is_loud(self):
        # A pathologically tiny stash must raise, not corrupt.
        oram = PathOram(small_config(), seed=1, stash_capacity=1)
        rng = random.Random(1)
        with pytest.raises(StashOverflow):
            for _ in range(200):
                oram.write(rng.randrange(oram.config.num_user_blocks),
                           bytes(64))


class TestWithCrypto:
    def test_round_trip_through_encrypted_codec(self):
        oram = make_oram(codec=EncryptedBucketCodec(b"K" * 16))
        oram.write(5, b"\x77" * 64)
        assert oram.read(5) == b"\x77" * 64
        oram.check_invariants()

    def test_memory_image_is_ciphertext(self):
        oram = make_oram(codec=EncryptedBucketCodec(b"K" * 16))
        payload = b"\xCC" * 64
        oram.write(5, payload)
        # No bucket image may contain the plaintext payload.
        for bucket in oram.geometry.iter_buckets():
            image = oram._buckets[bucket]
            assert payload not in image

    def test_replayed_bucket_image_is_rejected(self):
        oram = make_oram(codec=EncryptedBucketCodec(b"K" * 16))
        oram.write(5, b"\x77" * 64)
        earlier = list(oram._buckets)
        oram.write(5, b"\x88" * 64)
        # Untrusted memory puts the root's earlier image back.  Every
        # access reads and reseals the root, so the next one reaches it.
        assert oram._buckets[1] != earlier[1]
        oram._buckets[1] = earlier[1]
        with pytest.raises(CodecError, match="bucket 1: replayed image"):
            oram.read(5)

    def test_plain_codec_round_trip(self):
        oram = make_oram(codec=PlainCodec())
        oram.write(2, b"\x11" * 64)
        assert oram.read(2) == b"\x11" * 64


class TestObliviousness:
    def _trace_for(self, pattern, seed=11):
        """Physical bucket trace for a logical access pattern."""
        trace = []
        oram = PathOram(small_config(), seed=seed,
                        trace_hook=lambda kind, b: trace.append((kind, b)))
        for block in pattern:
            oram.read(block)
        return trace

    def test_accesses_touch_full_paths(self):
        trace = self._trace_for([0])
        cfg = small_config()
        fetched_levels = cfg.num_levels  # functional layer reads all levels
        reads = [b for kind, b in trace if kind == "read"]
        assert len(reads) == fetched_levels

    def test_same_block_twice_uses_fresh_path(self):
        # Remap-on-access: consecutive reads of one block take
        # independent random paths with high probability.
        oram_trace = self._trace_for([5, 5, 5, 5, 5, 5])
        reads = [b for kind, b in oram_trace if kind == "read"]
        cfg = small_config()
        per_access = cfg.num_levels
        paths = [tuple(reads[i * per_access:(i + 1) * per_access])
                 for i in range(6)]
        assert len(set(paths)) > 1

    def test_bucket_access_frequency_independent_of_pattern(self):
        # Hot single block vs uniform scan: the distribution of touched
        # buckets per level must look the same (chi-square-lite check on
        # level-1 children balance).
        hot = self._trace_for([3] * 300)
        rng = random.Random(2)
        cold_pattern = [rng.randrange(100) for _ in range(300)]
        cold = self._trace_for(cold_pattern)

        def left_fraction(trace):
            lefts = sum(1 for kind, b in trace if kind == "read" and b == 2)
            rights = sum(1 for kind, b in trace if kind == "read" and b == 3)
            return lefts / (lefts + rights)

        # Both should hover around 0.5; they must not differ grossly.
        assert abs(left_fraction(hot) - 0.5) < 0.1
        assert abs(left_fraction(cold) - 0.5) < 0.1
