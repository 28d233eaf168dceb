"""Property-based tests on the DRAM timing model (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.dram.bank import Bank, RankTimers
from repro.dram.commands import MemRequest, OpType
from repro.dram.timing import DDR3_1600 as T
from tests.dram import dram_reference as ref

requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),      # row
        st.booleans(),                               # is_write
        st.integers(min_value=0, max_value=200),     # extra arrival gap
    ),
    min_size=1,
    max_size=40,
)


def req(row, is_write):
    return MemRequest(
        OpType.WRITE if is_write else OpType.READ, 0, 0, bank=0, row=row
    )


@settings(max_examples=80, deadline=None)
@given(ops=requests)
def test_data_starts_never_precede_commands(ops):
    """Every burst start respects the minimum command chain from its
    earliest-allowed time (closed: tRCD+CAS; conflict also tRP)."""
    rank = RankTimers(T)
    bank = Bank(T, rank)
    now = 0
    for row, is_write, gap in ops:
        now += gap
        outcome = ref.classify(bank, row)
        start, outcome2 = bank.commit(req(row, is_write), earliest=now)
        assert outcome == outcome2
        cas = T.tCWL if is_write else T.tCL
        if outcome == "closed":
            assert start >= now + T.tRCD + cas
        elif outcome == "conflict":
            assert start >= now + T.tRP + T.tRCD + cas
        assert start >= now


@settings(max_examples=80, deadline=None)
@given(ops=requests, floor_gap=st.integers(min_value=0, max_value=10_000))
def test_floor_always_respected(ops, floor_gap):
    rank = RankTimers(T)
    bank = Bank(T, rank)
    floor = 0
    for row, is_write, gap in ops:
        floor += gap + floor_gap
        start, _ = bank.commit(req(row, is_write), earliest=0, floor=floor)
        assert start >= floor


@settings(max_examples=60, deadline=None)
@given(ops=requests)
def test_same_bank_bursts_never_go_backwards(ops):
    """Sequential commits with monotone earliest yield monotone bursts
    when each burst is floored at the previous one's end (as the
    channel's shared data bus enforces)."""
    rank = RankTimers(T)
    bank = Bank(T, rank)
    last_start = -1
    bus_free = 0
    now = 0
    for row, is_write, gap in ops:
        now += gap
        start, _ = bank.commit(req(row, is_write), earliest=now,
                               floor=bus_free)
        assert start > last_start or last_start < 0
        last_start = start
        bus_free = start + T.tBURST


@settings(max_examples=60, deadline=None)
@given(
    act_gaps=st.lists(st.integers(min_value=0, max_value=50),
                      min_size=5, max_size=12),
)
def test_tfaw_rolling_window(act_gaps):
    """No five activates ever land inside one tFAW window."""
    rank = RankTimers(T)
    acts = []
    t = 0
    for gap in act_gaps:
        slot = ref.activate_slot(rank, t + gap)
        ref.note_activate(rank, slot)
        acts.append(slot)
        t = slot
    for i in range(len(acts) - 4):
        assert acts[i + 4] - acts[i] >= T.tFAW
