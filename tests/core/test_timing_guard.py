"""Fixed-rate request pacing (t = 50 cycles)."""

import pytest

from repro.core.timing_guard import RequestPacer
from repro.sim.engine import cpu_cycles


class TestRequestPacer:
    def test_default_is_50_cycles(self):
        assert RequestPacer().t_ticks == cpu_cycles(50)

    def test_next_allowed_after_response(self):
        pacer = RequestPacer(t_cycles=50)
        assert pacer.response_received(1000) == 1000 + cpu_cycles(50)
        assert pacer.next_allowed == 1000 + cpu_cycles(50)

    def test_gap_independent_of_content(self):
        # The emission schedule depends only on response times -- the
        # timing-channel property.
        a, b = RequestPacer(), RequestPacer()
        a.emitted(real=True)
        b.emitted(real=False)
        assert a.response_received(500) == b.response_received(500)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            RequestPacer(t_cycles=-1)

    def test_zero_t_allowed(self):
        # t = 0 is a valid ablation point (no inter-request gap).
        assert RequestPacer(t_cycles=0).response_received(100) == 100
