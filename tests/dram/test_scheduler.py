"""FR-FCFS and the bandwidth-preallocation share policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.bank import Bank, RankTimers
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.scheduler import SharePolicy, SingleClassPolicy
from repro.dram.timing import DDR3_1600 as T, ChannelParams
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from tests.dram.dram_reference import FrFcfsScheduler, pick_class


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


def _serve_one(channel):
    """Run one service slot of ``channel`` at time 0 (no refresh is due)
    and return the request it picked: the one no longer queued."""
    def queued():
        return [r for queues in (channel._reads, channel._writes)
                for queue in queues for r in queue.reqs]

    before = queued()
    channel._service()
    left = {id(r) for r in queued()}
    picked = [r for r in before if id(r) not in left]
    assert len(picked) == 1
    return picked[0]


@settings(max_examples=100, deadline=None)
@given(
    queued=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                    min_size=1, max_size=40),
    open_rows=st.lists(st.one_of(st.none(), st.integers(0, 4)),
                       min_size=4, max_size=4),
    window=st.integers(1, 30),
)
def test_channel_scan_matches_the_reference(queued, open_rows, window):
    """A service slot picks what the reference windowed scan picks, for
    any single-class queue, open-row state and window."""
    channel = Channel(Engine(), "ch0",
                      params=ChannelParams(num_banks=4, read_queue_depth=40,
                                           scheduler_window=window))
    queue = [req(row, bank=bank) for bank, row in queued]
    for r in queue:
        channel.enqueue(r)
    for bank, row in zip(channel.banks, open_rows):
        bank.open_row = row
    expected = queue[FrFcfsScheduler(window).pick(queue, channel.banks)]
    assert _serve_one(channel) is expected


#: Share policies for the contended picks: ``None`` is the channel's
#: default :class:`SingleClassPolicy`, else a ``SharePolicy`` share.
POLICIES = [None, 0.5, 0.25, 0.75]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), window=st.integers(1, 24),
       write=st.booleans(), share=st.sampled_from(POLICIES),
       traced=st.booleans())
def test_indexed_pick_matches_the_reference(data, window, write, share,
                                            traced):
    """Service slots (the side-index probe, deep queues included) pick
    what the reference picks, request by request as the queue drains,
    for any open rows, on queues holding either class or both.  The
    reference: when both classes wait, a twin share policy picks the
    class, the class of the oldest request first; then
    ``FrFcfsScheduler`` scans that class's requests.  Traced, the
    channel's ``class_pick`` and ``frfcfs_reorder`` args are the
    reference's."""
    depth = 3 * window
    queued = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), st.booleans()),
        min_size=1, max_size=depth,
    ))
    if share is None:
        policy, twin = None, SingleClassPolicy()
    else:
        policy, twin = SharePolicy(share), SharePolicy(share)
    engine = Engine()
    tracer = Tracer({"dram"}) if traced else None
    channel = Channel(engine, "ch0", share_policy=policy, tracer=tracer,
                      params=ChannelParams(
                          num_banks=4, scheduler_window=window,
                          read_queue_depth=depth, write_queue_depth=depth))
    op = OpType.WRITE if write else OpType.READ
    queue = [
        MemRequest(op, 0, 0, bank=bank, row=row, traffic=(
            TrafficClass.SECURE if secure else TrafficClass.NORMAL))
        for bank, row, secure in queued
    ]
    for r in queue:
        channel.enqueue(r)
    for bank in channel.banks:
        bank.open_row = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    reference = FrFcfsScheduler(window)
    expected_trace = Tracer({"dram"})
    reference.bind_tracer(expected_trace.category("dram"), "ch0", engine)
    while queue:
        chosen = queue[0].traffic
        other = next(cls for cls in TrafficClass if cls is not chosen)
        if any(r.traffic is other for r in queue):
            chosen = pick_class(twin, [chosen, other])
            expected_trace.instant("dram", "class_pick", "ch0", engine.now,
                                   {"cls": chosen.value, "contenders": 2})
        candidates = [r for r in queue if r.traffic is chosen]
        expected = candidates[reference.pick(candidates, channel.banks)]
        assert _serve_one(channel) is expected
        queue.remove(expected)
        if data.draw(st.booleans()):
            # Any open rows, not only those the picks' commits leave.
            bank = channel.banks[data.draw(st.integers(0, 3))]
            bank.open_row = data.draw(st.one_of(st.none(),
                                                st.integers(0, 4)))
    if traced:
        def decisions(events):
            return [(e.name, e.args) for e in events
                    if e.name in ("class_pick", "frfcfs_reorder")]

        assert decisions(tracer.events) == decisions(expected_trace.events)


class TestSharePolicy:
    def test_5050_alternates(self):
        policy = SharePolicy(0.5)
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [pick_class(policy, pending) for _ in range(100)]
        secure = picks.count(TrafficClass.SECURE)
        assert secure == 50

    def test_served_fraction_tracks_weights(self):
        policy = SharePolicy(0.25)
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [pick_class(policy, pending) for _ in range(400)]
        secure = picks.count(TrafficClass.SECURE)
        assert secure / len(picks) == pytest.approx(0.25, abs=0.02)

    def test_work_conserving_when_one_class_idle(self):
        policy = SharePolicy(0.5)
        # Only NORMAL has pending work; it must always be served.
        for _ in range(10):
            assert pick_class(policy, [TrafficClass.NORMAL]) \
                is TrafficClass.NORMAL

    def test_idle_class_does_not_bank_unbounded_credit(self):
        policy = SharePolicy(0.5)
        for _ in range(100):
            pick_class(policy, [TrafficClass.NORMAL])
        # SECURE was absent; when it returns, it should not monopolize.
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [pick_class(policy, pending) for _ in range(20)]
        assert picks.count(TrafficClass.NORMAL) >= 8

    @settings(max_examples=50, deadline=None)
    @given(
        share=st.sampled_from([0.2, 0.25, 0.5, 0.75]),
        firsts=st.lists(st.sampled_from(list(TrafficClass)), max_size=60),
    )
    def test_pick_between_is_pick_class_of_the_pair(self, share, firsts):
        """The channel's allocation-free two-class entry makes the
        generic DRR's decisions and leaves its credits."""
        fast, generic = SharePolicy(share), SharePolicy(share)
        for first in firsts:
            second = next(cls for cls in TrafficClass if cls is not first)
            assert fast.pick_between(first, second) is \
                pick_class(generic, [first, second])
            assert fast._credit == generic._credit


class TestSingleClassPolicy:
    def test_first_pending_wins(self):
        policy = SingleClassPolicy()
        assert pick_class(
            policy, [TrafficClass.NORMAL, TrafficClass.SECURE]
        ) is TrafficClass.NORMAL
        assert policy.pick_between(
            TrafficClass.NORMAL, TrafficClass.SECURE
        ) is TrafficClass.NORMAL
