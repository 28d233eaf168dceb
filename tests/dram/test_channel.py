"""Channel service loop: queues, drain, completion timing, sharing."""

import pytest

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.compliance import ProtocolChecker
from repro.dram.scheduler import SharePolicy
from repro.dram.timing import ChannelParams, DDR3_1600 as T
from repro.sim.engine import Engine


def make_channel(**kw):
    eng = Engine()
    return eng, Channel(eng, "ch0", **kw)


def read(bank=0, row=0, col=0, cb=None, traffic=TrafficClass.NORMAL):
    return MemRequest(OpType.READ, 0, 0, bank=bank, row=row, col=col,
                      traffic=traffic, on_complete=cb)


def write(bank=0, row=0, cb=None, traffic=TrafficClass.NORMAL):
    return MemRequest(OpType.WRITE, 0, 0, bank=bank, row=row,
                      traffic=traffic, on_complete=cb)


class TestBasicService:
    def test_single_read_latency(self):
        eng, ch = make_channel()
        done = []
        ch.enqueue(read(cb=lambda t: done.append(t)))
        eng.run()
        # Closed bank: tRCD + tCL + tBURST.
        assert done == [T.tRCD + T.tCL + T.tBURST]

    def test_row_hits_chain_back_to_back(self):
        eng, ch = make_channel()
        done = []
        for i in range(4):
            ch.enqueue(read(col=i, cb=lambda t: done.append(t)))
        eng.run()
        # After the first access the bus streams one burst per tBURST.
        assert done[1] - done[0] == T.tBURST
        assert done[3] - done[2] == T.tBURST

    def test_fr_fcfs_reorders_for_hits(self):
        eng, ch = make_channel()
        order = []
        ch.enqueue(read(row=0, cb=lambda t: order.append("a")))
        ch.enqueue(read(row=1, cb=lambda t: order.append("conflict")))
        ch.enqueue(read(row=0, cb=lambda t: order.append("hit")))
        eng.run()
        assert order == ["a", "hit", "conflict"]

    def test_queue_capacity_enforced(self):
        eng, ch = make_channel(params=ChannelParams(read_queue_depth=2,
                                                    write_queue_depth=2,
                                                    write_drain_hi=2,
                                                    write_drain_lo=1))
        ch.enqueue(read())
        ch.enqueue(read())
        assert not ch.can_accept(OpType.READ)
        with pytest.raises(RuntimeError):
            ch.enqueue(read())

    def test_bad_bank_rejected(self):
        eng, ch = make_channel()
        with pytest.raises(ValueError):
            ch.enqueue(read(bank=99))

    def test_space_waiters_fire(self):
        eng, ch = make_channel()
        woken = []
        ch.enqueue(read())
        ch.notify_on_space(lambda: woken.append(eng.now))
        eng.run()
        assert len(woken) == 1


class TestWriteDrain:
    def test_opportunistic_write_when_no_reads(self):
        eng, ch = make_channel()
        done = []
        ch.enqueue(write(cb=lambda t: done.append(t)))
        eng.run()
        assert done  # serviced without reaching the drain threshold

    def test_reads_preferred_over_writes_below_threshold(self):
        eng, ch = make_channel()
        order = []
        ch.enqueue(write(row=1, cb=lambda t: order.append("w")))
        ch.enqueue(read(row=2, cb=lambda t: order.append("r")))
        eng.run()
        assert order[0] == "r"

    def test_write_timeout_bounds_starvation(self):
        # A lone write behind an endless read stream must still be
        # serviced within the age bound.
        eng, ch = make_channel()
        done = []
        ch.enqueue(write(row=99, cb=lambda t: done.append(t)))
        # Feed reads continuously so the read queue never drains.
        def feed(i):
            if i < 400 and ch.can_accept(OpType.READ):
                ch.enqueue(read(row=i % 4, col=i))
            if i < 400:
                eng.after(T.tBURST, lambda: feed(i + 1))
        feed(0)
        eng.run()
        assert done
        assert done[0] <= ch.params.write_timeout + 100 * T.tBURST

    def test_drain_hysteresis(self):
        params = ChannelParams(write_drain_hi=4, write_drain_lo=1)
        eng, ch = make_channel(params=params)
        order = []
        for i in range(4):
            ch.enqueue(write(row=i, cb=lambda t, i=i: order.append(("w", i))))
        ch.enqueue(read(row=9, cb=lambda t: order.append(("r", 0))))
        eng.run()
        # Drain was triggered (wq hit hi=4): writes run before the read
        # until wq falls to lo=1.
        assert order[0][0] == "w"
        assert ("r", 0) in order


class TestStatsAndSharing:
    def test_row_outcome_counters(self):
        eng, ch = make_channel()
        ch.enqueue(read(row=0))
        ch.enqueue(read(row=0))
        ch.enqueue(read(row=5))
        eng.run()
        assert ch.stats.counter("row_closed").value == 1
        assert ch.stats.counter("row_hit").value == 1
        assert ch.stats.counter("row_conflict").value == 1
        assert ch.row_hit_rate() == pytest.approx(1 / 3)

    def test_latency_recorded_per_class(self):
        eng, ch = make_channel()
        ch.enqueue(read(traffic=TrafficClass.SECURE))
        eng.run()
        assert ch.stats.latency("secure_read_latency").count == 1
        assert ch.stats.latency("normal_read_latency").count == 0

    def test_share_policy_interleaves_classes(self):
        eng, ch = make_channel(share_policy=SharePolicy())
        order = []
        # Two batches on different banks so neither is row-hit-favored.
        for i in range(8):
            ch.enqueue(read(bank=0, row=i, traffic=TrafficClass.SECURE,
                            cb=lambda t: order.append("s")))
        for i in range(8):
            ch.enqueue(read(bank=1, row=i, traffic=TrafficClass.NORMAL,
                            cb=lambda t: order.append("n")))
        eng.run()
        # 50/50 preallocation: normals are not starved behind all secures.
        first_half = order[:8]
        assert first_half.count("n") >= 3

    def test_refresh_eventually_happens(self):
        eng, ch = make_channel()
        # Issue sparse reads beyond tREFI so a refresh window is crossed.
        done = []
        def issue(i):
            if i < 3:
                ch.enqueue(read(row=i, cb=lambda t: done.append(t)))
                eng.after(T.tREFI, lambda: issue(i + 1))
        issue(0)
        eng.run()
        assert ch.stats.counter("refreshes").value >= 1

    def test_utilization_bounded(self):
        eng, ch = make_channel()
        for i in range(10):
            ch.enqueue(read(col=i))
        eng.run()
        assert 0.0 < ch.utilization() <= 1.0


# ---------------------------------------------------------------------------
# Scheduler edge cases, pinned against absolute JEDEC timing
# ---------------------------------------------------------------------------

NUM_BANKS = 8

EDGE_CASE_PARAMS = ChannelParams(read_queue_depth=8, write_queue_depth=8,
                                 write_drain_hi=6, write_drain_lo=2)


def _replay(ops, *, periodic="lazy", page_policy="open"):
    """Run one request mix through a fresh channel; return its command log.

    ``ops`` is a list of ``(gap, bank, row, is_write, secure)`` tuples;
    arrivals are cumulative.  The mixes here never fill a queue.
    """
    eng = Engine(periodic=periodic)
    channel = Channel(eng, "ch0", params=EDGE_CASE_PARAMS,
                      page_policy=page_policy)
    log = channel.start_command_log()
    now = 0
    for gap, bank, row, is_write, secure in ops:
        now += gap
        req = MemRequest(
            OpType.WRITE if is_write else OpType.READ, 0, 0,
            bank=bank % NUM_BANKS, row=row,
            traffic=TrafficClass.SECURE if secure else TrafficClass.NORMAL,
        )
        eng.at(now, lambda r=req: channel.enqueue(r))
    eng.run()
    return log


class TestSchedulerEdgeCases:
    def test_tfaw_at_exactly_four_acts(self):
        # Five back-to-back closed-bank reads on five distinct banks: the
        # first four ACTs pace at tRRD, the fifth must wait for the full
        # tFAW window -- exactly, not one tick more.
        log = _replay([(0, b, 0, False, False) for b in range(5)])
        times = [c.time for c in log if c.kind == "ACT"]
        assert len(times) == 5
        for a, b in zip(times, times[1:4]):
            assert b - a == T.tRRD
        assert times[4] - times[0] == T.tFAW
        assert ProtocolChecker(T, NUM_BANKS).check(log) == []

    def test_twtr_write_to_read_turnaround_tie(self):
        # The read arrives one tick after the (opportunistic) write
        # enters service, so the turnaround order is forced to WR -> RD
        # and the read's CAS lands on the tWTR fence.
        log = _replay([(0, 0, 0, True, False), (1, 1, 0, False, False)])
        cmds = [c for c in log if c.kind in ("WR", "RD")]
        assert [c.kind for c in cmds] == ["WR", "RD"]
        wr, rd = cmds
        # JEDEC: READ CAS >= WRITE data end + tWTR.
        assert rd.time >= wr.time + T.tCWL + T.tBURST + T.tWTR

    def test_trtp_read_to_precharge_tie(self):
        # Close-page policy precharges immediately after each access;
        # the PRE after a read is fenced by tRTP (and tRAS) exactly.
        log = _replay([(0, 0, 0, False, False), (0, 0, 1, False, False)],
                      page_policy="close")
        rd = next(c for c in log if c.kind == "RD")
        pre = next(c for c in log if c.kind == "PRE" and c.time > rd.time)
        assert pre.time >= rd.time + T.tRTP
        act = next(c for c in log if c.kind == "ACT")
        assert pre.time >= act.time + T.tRAS
        assert ProtocolChecker(T, NUM_BANKS).check(log) == []

    def test_trtp_binds_on_open_page_conflict(self):
        # Open page: a second read hits the open row tRAS after the
        # first, so by the time a third read to another row forces a
        # PRECHARGE, tRAS has long expired and only tRTP fences it.
        log = _replay([(0, 0, 0, False, False),
                       (T.tRAS, 0, 0, False, False),
                       (1, 0, 1, False, False)])
        reads = [c for c in log if c.kind == "RD"]
        pre = next(c for c in log if c.kind == "PRE")
        act = next(c for c in log if c.kind == "ACT")
        assert pre.time - act.time > T.tRAS
        assert pre.time == reads[1].time + T.tRTP
        assert ProtocolChecker(T, NUM_BANKS).check(log) == []

    def test_same_cycle_refresh_vs_demand_ordering(self):
        # A demand arriving exactly at the tREFI deadline: the service
        # slot and the refresh due-time coincide on the same cycle, and
        # the (time, seq) tie resolves refresh catch-up first, then the
        # demand access.
        log = _replay([(T.tREFI, 0, 0, False, False),
                       (0, 1, 1, False, False)])
        assert log[0].kind == "REF"
        first_access = next(c for c in log if c.kind != "REF")
        assert first_access.time >= log[0].time + T.tRFC
        assert ProtocolChecker(T, NUM_BANKS).check(log) == []

    def test_refresh_catchup_batch_matches_oracle(self):
        # Idle for several tREFI windows, then a burst: the closed-form
        # catch-up must book the same back-dated REF series as the eager
        # one-refresh-per-window oracle.
        ops = [(4 * T.tREFI + 17, b % 4, b % 3, b % 2 == 0, False)
               for b in range(6)]
        log = _replay(ops)
        assert log == _replay(ops, periodic="eager")
        assert len([c for c in log if c.kind == "REF"]) >= 4
        assert ProtocolChecker(T, NUM_BANKS).check(log) == []
