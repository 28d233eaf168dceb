"""ORAM frontend: fixed-rate emission, dummies, queue semantics."""

from typing import List, Optional

import pytest

from repro.core.frontend import OramBackend, OramFrontend
from repro.dram.commands import OpType
from repro.sim.engine import Engine, cpu_cycles


class StubBackend(OramBackend):
    """Backend answering every request after a fixed delay."""

    def __init__(self, engine: Engine, latency: int = 1000,
                 user_blocks: int = 4096) -> None:
        self.engine = engine
        self.latency = latency
        self._user_blocks = user_blocks
        self.submissions: List[Optional[int]] = []

    @property
    def num_user_blocks(self) -> int:
        return self._user_blocks

    def submit(self, block_id, on_response) -> None:
        self.submissions.append(block_id)
        self.engine.after(self.latency, lambda: on_response(self.engine.now))


def make_frontend(latency=1000, t_cycles=50, queue_depth=8):
    eng = Engine()
    backend = StubBackend(eng, latency)
    fe = OramFrontend(eng, backend, t_cycles=t_cycles,
                      queue_depth=queue_depth)
    fe.start()
    return eng, backend, fe


class TestFixedRateEmission:
    def test_dummies_flow_without_app_requests(self):
        eng, backend, fe = make_frontend(latency=1000, t_cycles=50)
        eng.at(10_000, eng.stop)
        eng.run()
        # Period = latency + t = 1000 + 250 ticks.
        assert len(backend.submissions) >= 7
        assert all(b is None for b in backend.submissions)

    def test_emission_period_is_response_plus_t(self):
        eng, backend, fe = make_frontend(latency=1000, t_cycles=50)
        times: List[int] = []
        original = backend.submit

        def tracking_submit(block_id, on_response):
            times.append(eng.now)
            original(block_id, on_response)

        backend.submit = tracking_submit
        eng.at(6_000, eng.stop)
        eng.run()
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert gaps == {1000 + cpu_cycles(50)}

    def test_real_requests_take_priority_over_dummies(self):
        eng, backend, fe = make_frontend()
        fe.issue(OpType.READ, 42, 7, lambda t: None)
        eng.at(3_000, eng.stop)
        eng.run()
        reals = [b for b in backend.submissions if b is not None]
        assert reals == [42]

    def test_real_fraction_tracked(self):
        eng, backend, fe = make_frontend()
        fe.issue(OpType.READ, 1, 7, lambda t: None)
        eng.at(10_000, eng.stop)
        eng.run()
        real = fe.pacer.stats.counter("real").value
        dummy = fe.pacer.stats.counter("dummy").value
        assert 0.0 < real / (real + dummy) < 1.0


class TestAppInterface:
    def test_read_completion_delivered(self):
        eng, backend, fe = make_frontend(latency=500)
        done: List[int] = []
        fe.issue(OpType.READ, 5, 7, done.append)
        eng.at(2_000, eng.stop)
        eng.run()
        assert len(done) == 1

    def test_write_does_not_call_back(self):
        eng, backend, fe = make_frontend(latency=500)
        done: List[int] = []
        fe.issue(OpType.WRITE, 5, 7, done.append)
        eng.at(3_000, eng.stop)
        eng.run()
        assert done == []  # stores retire at issue; no data to return

    def test_line_address_maps_into_user_blocks(self):
        eng, backend, fe = make_frontend()
        fe.issue(OpType.READ, backend.num_user_blocks + 3, 7, lambda t: None)
        eng.at(2_000, eng.stop)
        eng.run()
        reals = [b for b in backend.submissions if b is not None]
        assert reals == [3]

    def test_queue_depth_enforced(self):
        eng, backend, fe = make_frontend(queue_depth=2)
        fe.issue(OpType.READ, 1, 7, None)
        fe.issue(OpType.READ, 2, 7, None)
        assert not fe.can_accept(OpType.READ)
        with pytest.raises(RuntimeError):
            fe.issue(OpType.READ, 3, 7, None)

    def test_space_waiters_fire_on_dequeue(self):
        eng, backend, fe = make_frontend(queue_depth=1, latency=100)
        fe.issue(OpType.READ, 1, 7, None)
        woken: List[int] = []
        fe.notify_on_space(lambda: woken.append(eng.now))
        eng.at(5_000, eng.stop)
        eng.run()
        assert woken

    def test_requests_served_fifo(self):
        eng, backend, fe = make_frontend(latency=100, t_cycles=10)
        for addr in (10, 11, 12):
            fe.issue(OpType.READ, addr, 7, None)
        eng.at(5_000, eng.stop)
        eng.run()
        reals = [b for b in backend.submissions if b is not None]
        assert reals == [10, 11, 12]
