"""Functional durability: MAC-detected transient flips never corrupt data."""

import pytest

from repro.crypto.codec import CodecError
from repro.faults.resilient import (
    DurabilityError,
    ResilientPathOram,
    durability_check,
)
from repro.oram.config import OramConfig

CONFIG = OramConfig(leaf_level=5)


class TestResilientPathOram:
    def test_rejects_bad_flip_rate(self):
        with pytest.raises(ValueError):
            ResilientPathOram(CONFIG, flip_rate=1.0)

    def test_rejects_negative_retry_limit(self):
        # retry_limit=-1 would allow zero fetches: the first clean read
        # would fail as if every fetch had been flipped.
        with pytest.raises(ValueError, match="retry_limit"):
            ResilientPathOram(CONFIG, retry_limit=-1)

    def test_clean_run_injects_nothing(self):
        oram = ResilientPathOram(CONFIG, seed=3, flip_rate=0.0)
        stats = durability_check(oram, num_ops=100, seed=3)
        assert stats["flips_injected"] == 0
        assert stats["flips_detected"] == 0
        assert stats["rereads"] == 0
        assert stats["reads"] + stats["writes"] == 100

    def test_every_flip_is_detected_and_reread(self):
        oram = ResilientPathOram(CONFIG, seed=3, flip_rate=0.05)
        stats = durability_check(oram, num_ops=150, seed=3)
        assert stats["flips_injected"] > 0
        assert stats["flips_detected"] == stats["flips_injected"]
        assert stats["rereads"] == stats["flips_injected"]
        assert stats["stash_peak"] <= 500

    def test_fault_schedule_is_deterministic(self):
        first = durability_check(
            ResilientPathOram(CONFIG, seed=9, flip_rate=0.05),
            num_ops=120, seed=9,
        )
        second = durability_check(
            ResilientPathOram(CONFIG, seed=9, flip_rate=0.05),
            num_ops=120, seed=9,
        )
        assert first == second

    def test_retry_bound_is_enforced(self):
        """With no retries allowed the first flip must surface as a
        CodecError instead of looping forever."""
        oram = ResilientPathOram(CONFIG, seed=3, flip_rate=0.6,
                                 retry_limit=0)
        with pytest.raises(CodecError):
            durability_check(oram, num_ops=200, seed=3)

    def test_durability_oracle_has_teeth(self):
        """An ORAM that silently loses writes must trip the shadow-map
        oracle -- otherwise the invariant harness proves nothing."""

        class _LyingOram(ResilientPathOram):
            def read(self, block_id):
                data = super().read(block_id)
                return bytes(len(data))

        with pytest.raises(DurabilityError):
            durability_check(
                _LyingOram(CONFIG, seed=3, flip_rate=0.0),
                num_ops=200, seed=3,
            )
