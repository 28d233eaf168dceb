"""FR-FCFS and the bandwidth-preallocation share policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.bank import Bank, RankTimers
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.scheduler import SharePolicy, SingleClassPolicy
from repro.dram.timing import DDR3_1600 as T, ChannelParams
from repro.sim.engine import Engine
from tests.dram.dram_reference import FrFcfsScheduler


def req(row, bank=0, traffic=TrafficClass.NORMAL):
    return MemRequest(OpType.READ, 0, 0, bank=bank, row=row, traffic=traffic)


def banks_with_open_row(row, bank=0, count=4):
    rank = RankTimers(T)
    banks = [Bank(T, rank) for _ in range(count)]
    banks[bank].commit(req(row, bank), earliest=0)
    return banks


class TestFrFcfs:
    def test_prefers_row_hit(self):
        banks = banks_with_open_row(row=9, bank=0)
        queue = [req(3, bank=0), req(9, bank=0), req(4, bank=1)]
        assert FrFcfsScheduler().pick(queue, banks) == 1

    def test_falls_back_to_oldest(self):
        banks = banks_with_open_row(row=99, bank=3)
        queue = [req(3, bank=0), req(4, bank=1)]
        assert FrFcfsScheduler().pick(queue, banks) == 0

    def test_window_bounds_search(self):
        banks = banks_with_open_row(row=9, bank=0)
        queue = [req(3, bank=0), req(4, bank=0), req(9, bank=0)]
        # Hit sits at index 2, outside a window of 2 -> oldest wins.
        assert FrFcfsScheduler(window=2).pick(queue, banks) == 0

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError):
            FrFcfsScheduler().pick([], [])

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FrFcfsScheduler(window=0)


@settings(max_examples=100, deadline=None)
@given(
    queued=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                    min_size=1, max_size=40),
    open_rows=st.lists(st.one_of(st.none(), st.integers(0, 4)),
                       min_size=4, max_size=4),
    window=st.integers(1, 30),
)
def test_channel_scan_matches_the_reference(queued, open_rows, window):
    """``Channel._scan_pick`` inlines the reference scan: same pick for
    any queue, open-row state and window."""
    channel = Channel(Engine(), "ch0",
                      params=ChannelParams(num_banks=4,
                                           scheduler_window=window))
    for bank, row in zip(channel.banks, open_rows):
        bank.open_row = row
    queue = [req(row, bank=bank) for bank, row in queued]
    assert channel._scan_pick(queue) == \
        FrFcfsScheduler(window).pick(queue, channel.banks)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), window=st.integers(1, 24))
def test_indexed_pick_matches_the_reference(data, window):
    """``Channel._pick_request`` (the side-index probe, deep queues
    included) picks what the reference windowed scan picks, request by
    request as the queue drains, for any open rows."""
    depth = 3 * window
    queued = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4)),
        min_size=1, max_size=depth,
    ))
    channel = Channel(Engine(), "ch0", params=ChannelParams(
        num_banks=4, scheduler_window=window, read_queue_depth=depth))
    for bank, row in queued:
        channel.enqueue(req(row, bank=bank))
    for bank in channel.banks:
        bank.open_row = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    reference = FrFcfsScheduler(window)
    queue = channel.read_q
    while queue:
        expected = queue[reference.pick(list(queue), channel.banks)]
        picked = channel._pick_request(queue)
        assert picked is expected
        # The pick's row opens, as its commit would leave it.
        channel.banks[picked.bank].open_row = picked.row


class TestSharePolicy:
    def test_5050_alternates(self):
        policy = SharePolicy()
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [policy.pick_class(pending) for _ in range(100)]
        secure = picks.count(TrafficClass.SECURE)
        assert secure == 50

    def test_served_fraction_tracks_weights(self):
        policy = SharePolicy(
            {TrafficClass.SECURE: 0.25, TrafficClass.NORMAL: 0.75}
        )
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        for _ in range(400):
            policy.pick_class(pending)
        assert policy.served_fraction(TrafficClass.SECURE) == pytest.approx(
            0.25, abs=0.02
        )

    def test_work_conserving_when_one_class_idle(self):
        policy = SharePolicy()
        # Only NORMAL has pending work; it must always be served.
        for _ in range(10):
            assert policy.pick_class([TrafficClass.NORMAL]) is TrafficClass.NORMAL

    def test_idle_class_does_not_bank_unbounded_credit(self):
        policy = SharePolicy()
        for _ in range(100):
            policy.pick_class([TrafficClass.NORMAL])
        # SECURE was absent; when it returns, it should not monopolize.
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [policy.pick_class(pending) for _ in range(20)]
        assert picks.count(TrafficClass.NORMAL) >= 8

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            SharePolicy({TrafficClass.SECURE: 0.0})

    def test_unconfigured_class_falls_through(self):
        policy = SharePolicy({TrafficClass.SECURE: 1.0})
        assert policy.pick_class([TrafficClass.NORMAL]) is TrafficClass.NORMAL


class TestSingleClassPolicy:
    def test_first_pending_wins(self):
        policy = SingleClassPolicy()
        assert policy.pick_class(
            [TrafficClass.NORMAL, TrafficClass.SECURE]
        ) is TrafficClass.NORMAL
