"""Bank state machine: row-buffer outcomes and JEDEC fences."""

import pytest

from repro.dram.bank import Bank, RankTimers
from repro.dram.commands import MemRequest, OpType
from repro.dram.timing import DDR3_1600 as T
from tests.dram import dram_reference as ref


def make_bank():
    rank = RankTimers(T)
    return Bank(T, rank), rank


def req(row, bank=0, op=OpType.READ):
    return MemRequest(op, 0, 0, bank=bank, row=row)


class TestClassification:
    def test_fresh_bank_is_closed(self):
        bank, _ = make_bank()
        assert ref.classify(bank, 5) == "closed"

    def test_open_row_hit(self):
        bank, _ = make_bank()
        bank.commit(req(5), earliest=0)
        assert ref.classify(bank, 5) == "hit"

    def test_other_row_conflict(self):
        bank, _ = make_bank()
        bank.commit(req(5), earliest=0)
        assert ref.classify(bank, 6) == "conflict"

    def test_force_precharge_closes(self):
        bank, _ = make_bank()
        bank.commit(req(5), earliest=0)
        bank.force_precharge(1000)
        assert ref.classify(bank, 5) == "closed"


class TestLatencies:
    def test_closed_read_latency(self):
        bank, _ = make_bank()
        start, outcome = bank.commit(req(7), earliest=0)
        assert outcome == "closed"
        # ACT at 0, column at tRCD, data at tRCD + tCL.
        assert start == T.tRCD + T.tCL

    def test_row_hit_back_to_back(self):
        bank, _ = make_bank()
        bank.commit(req(7), earliest=0)
        # Ask once the tRCD fence from the ACT at t=0 has expired: a hit
        # then costs only the column access.
        second, outcome = bank.commit(req(7), earliest=T.tRCD)
        assert outcome == "hit"
        assert second == T.tRCD + T.tCL

    def test_conflict_pays_precharge(self):
        bank, _ = make_bank()
        bank.commit(req(7), earliest=0)
        start, outcome = bank.commit(req(8), earliest=0)
        assert outcome == "conflict"
        # PRE cannot issue before tRAS from the ACT at t=0.
        assert start >= T.tRAS + T.tRP + T.tRCD + T.tCL

    def test_floor_delays_data(self):
        bank, _ = make_bank()
        start, _ = bank.commit(req(7), earliest=0, floor=10_000)
        assert start == 10_000

    def test_write_uses_cwl(self):
        bank, _ = make_bank()
        start, _ = bank.commit(req(7, op=OpType.WRITE), earliest=0)
        assert start == T.tRCD + T.tCWL

    def test_write_recovery_fences_precharge(self):
        bank, _ = make_bank()
        w_start, _ = bank.commit(req(7, op=OpType.WRITE), earliest=0)
        start, outcome = bank.commit(req(8), earliest=0)
        assert outcome == "conflict"
        # PRE must wait tWR past the write burst end.
        assert start >= w_start + T.tBURST + T.tWR + T.tRP + T.tRCD + T.tCL

    def test_statistics_counted(self):
        bank, _ = make_bank()
        bank.commit(req(1), earliest=0)
        bank.commit(req(1), earliest=0)
        bank.commit(req(2), earliest=0)
        assert (bank.misses, bank.hits, bank.conflicts) == (1, 1, 1)


class TestRankTimers:
    def test_trrd_spacing(self):
        rank = RankTimers(T)
        ref.note_activate(rank, 0)
        assert ref.activate_slot(rank, 0) == T.tRRD

    def test_tfaw_window(self):
        rank = RankTimers(T)
        for i in range(4):
            ref.note_activate(rank, i * T.tRRD)
        # The 5th activate must wait until tFAW past the 1st.
        assert ref.activate_slot(rank, 0) >= T.tFAW

    def test_wtr_fence(self):
        rank = RankTimers(T)
        ref.note_write_end(rank, 1000)
        assert ref.read_ready(rank, 0) == 1000 + T.tWTR

    def test_refresh_due(self):
        rank = RankTimers(T)
        assert ref.refresh_window(rank, 0) is None
        window = ref.refresh_window(rank, T.tREFI)
        assert window == (T.tREFI, T.tREFI + T.tRFC)
        ref.complete_refresh(rank)
        assert ref.refresh_window(rank, T.tREFI) is None
        assert rank.refreshes == 1

    def test_tfaw_across_banks_shared(self):
        rank = RankTimers(T)
        bank_a = Bank(T, rank)
        bank_b = Bank(T, rank)
        bank_a.commit(req(1, bank=0), earliest=0)
        start_b, _ = bank_b.commit(req(1, bank=1), earliest=0)
        # Second bank's ACT spaced by tRRD through the shared rank.
        assert start_b >= T.tRRD + T.tRCD + T.tCL
