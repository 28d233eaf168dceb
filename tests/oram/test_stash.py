"""Stash bookkeeping and the overflow guard."""

import pytest

from repro.oram.stash import Stash, StashOverflow


class TestStash:
    def test_put_get_pop(self):
        stash = Stash()
        stash.put(5, leaf=3, payload="data")
        assert 5 in stash
        assert stash.get(5) == (3, "data")
        assert stash.pop(5) == (3, "data")
        assert 5 not in stash

    def test_put_overwrites(self):
        stash = Stash()
        stash.put(5, 3, "a")
        stash.put(5, 9, "b")
        assert len(stash) == 1
        assert stash.get(5) == (9, "b")

    def test_peak_tracking(self):
        stash = Stash()
        for i in range(10):
            stash.put(i, 0, None)
        for i in range(10):
            stash.pop(i)
        assert stash.peak == 10
        assert len(stash) == 0

    def test_overflow_raises(self):
        stash = Stash(capacity=3)
        for i in range(3):
            stash.put(i, 0, None)
        with pytest.raises(StashOverflow):
            stash.put(99, 0, None)

    def test_unbounded_when_capacity_none(self):
        stash = Stash(capacity=None)
        for i in range(10_000):
            stash.put(i, 0, None)
        assert len(stash) == 10_000

    def test_items_snapshot(self):
        stash = Stash()
        stash.put(1, 5, "x")
        items = list(stash.items())
        assert items == [(1, 5, "x")]
