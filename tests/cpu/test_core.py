"""ROB core model: retirement blocking, MLP, backpressure, finish."""

from typing import List, Optional

import pytest

from repro.cpu.core import Core, CoreParams
from repro.dram.commands import OpType
from repro.sim.engine import CPU_CYCLE_TICKS, Engine
from repro.trace.trace_format import TraceRecord


class FixedLatencyPort:
    """Memory port answering every read after a fixed delay."""

    def __init__(self, engine: Engine, latency: int,
                 accept: bool = True) -> None:
        self.engine = engine
        self.latency = latency
        self.accept = accept
        self.issued: List = []
        self._waiters: List = []

    def can_accept(self, op: OpType) -> bool:
        return self.accept

    def issue(self, op, line_addr, app_id, on_complete) -> None:
        self.issued.append((self.engine.now, op, line_addr))
        if on_complete is not None:
            self.engine.after(self.latency, lambda: on_complete(self.engine.now))

    def notify_on_space(self, callback) -> None:
        self._waiters.append(callback)

    def release(self) -> None:
        self.accept = True
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            cb()


def run_core(records, latency=100, params=CoreParams(), port_cls=FixedLatencyPort):
    eng = Engine()
    port = port_cls(eng, latency)
    finish: List[int] = []
    core = Core(eng, 0, iter(records), port, params=params,
                on_finish=finish.append)
    core.start()
    eng.run()
    return eng, port, core, finish


def R(gap, addr=0):
    return TraceRecord(gap=gap, is_write=False, line_addr=addr)


def W(gap, addr=0):
    return TraceRecord(gap=gap, is_write=True, line_addr=addr)


class TestBasicExecution:
    def test_pure_compute_finishes_at_pace(self):
        # One read with a huge gap: time dominated by 1000 instrs / 4-wide.
        _, _, core, finish = run_core([R(999)], latency=10)
        assert core.finished
        expected_min = (1000 // 4) * CPU_CYCLE_TICKS
        assert finish[0] >= expected_min

    def test_read_latency_blocks_retirement(self):
        _, _, _, finish_fast = run_core([R(0)], latency=10)
        _, _, _, finish_slow = run_core([R(0)], latency=10_000)
        assert finish_slow[0] - finish_fast[0] >= 9_000

    def test_all_records_issued(self):
        records = [R(10, addr=i) for i in range(20)]
        _, port, core, _ = run_core(records, latency=50)
        assert len(port.issued) == 20
        assert core.stats.counter("loads_issued").value == 20

    def test_writes_do_not_block(self):
        # Writes retire on acceptance: finish ~ pace, not port latency.
        _, _, _, finish_w = run_core([W(10) for _ in range(10)], latency=10**6)
        assert finish_w[0] < 10**6

    def test_finish_reported_once(self):
        _, _, _, finish = run_core([R(5), R(5)], latency=10)
        assert len(finish) == 1


class TestMemoryLevelParallelism:
    def test_independent_reads_overlap(self):
        # 8 reads with tiny gaps: the ROB lets them all issue before the
        # first completes, so total time ~ one latency, not eight.
        latency = 10_000
        _, port, _, finish = run_core(
            [R(0, addr=i) for i in range(8)], latency=latency
        )
        issue_times = [t for t, _op, _a in port.issued]
        assert max(issue_times) < latency  # all issued before first return
        assert finish[0] < 2 * latency

    def test_rob_limits_outstanding(self):
        # Gap 63 -> each record occupies 64 ROB slots; with ROB=128 only
        # ~2 records fit, so issues serialize in waves.
        latency = 50_000
        params = CoreParams(rob_size=128)
        _, port, _, _ = run_core(
            [R(63, addr=i) for i in range(8)], latency=latency, params=params
        )
        early = [t for t, _o, _a in port.issued if t < latency]
        assert len(early) <= 3


class TestBackpressure:
    def test_stalls_until_port_has_space(self):
        eng = Engine()
        port = FixedLatencyPort(eng, latency=10, accept=False)
        core = Core(eng, 0, iter([R(0)]), port)
        core.start()
        eng.run()
        assert port.issued == []
        port.release()
        eng.run()
        assert len(port.issued) == 1
        assert core.finished


class TestEdgeCases:
    def test_empty_trace_finishes_immediately(self):
        _, _, core, finish = run_core([], latency=10)
        assert core.finished
        assert finish[0] == 0

    def test_zero_gap_records(self):
        _, port, core, _ = run_core([R(0, addr=i) for i in range(5)],
                                    latency=10)
        assert core.finished
        assert len(port.issued) == 5

    def test_gap_larger_than_rob(self):
        # A 1000-instruction gap exceeds ROB=128; fetch must chunk it.
        _, _, core, finish = run_core([R(1000), R(1000)], latency=100)
        assert core.finished
        assert finish[0] >= (2002 // 4) * CPU_CYCLE_TICKS

    def test_mixed_reads_writes(self):
        records = [R(5, 1), W(5, 2), R(5, 3), W(5, 4)]
        _, port, core, _ = run_core(records, latency=30)
        ops = [op for _t, op, _a in port.issued]
        assert ops.count(OpType.READ) == 2
        assert ops.count(OpType.WRITE) == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CoreParams(rob_size=0)
