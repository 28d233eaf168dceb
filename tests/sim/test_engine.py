"""Engine: ordering, determinism, control flow."""

import pytest

from repro.sim.engine import (
    CPU_CYCLE_TICKS,
    MEM_CYCLE_TICKS,
    TICKS_PER_NS,
    Engine,
    cpu_cycles,
    mem_cycles,
    ns,
)


class TestUnits:
    def test_ticks_per_ns(self):
        assert TICKS_PER_NS == 16

    def test_cpu_cycle_is_integral(self):
        # 3.2 GHz -> 0.3125 ns -> exactly 5 ticks.
        assert CPU_CYCLE_TICKS == 5
        assert cpu_cycles(1) == 5
        assert cpu_cycles(50) == 250

    def test_mem_cycle_is_integral(self):
        # 800 MHz DDR3-1600 clock -> 1.25 ns -> exactly 20 ticks.
        assert MEM_CYCLE_TICKS == 20
        assert mem_cycles(11) == 220

    def test_ns_conversion(self):
        assert ns(15) == 240
        assert ns(7.5) == 120

    def test_round_trip_consistency(self):
        # 4 CPU cycles per memory cycle at these clocks.
        assert mem_cycles(1) == cpu_cycles(4)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.at(30, lambda: order.append("c"))
        eng.at(10, lambda: order.append("a"))
        eng.at(20, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_events_fire_fifo(self):
        eng = Engine()
        order = []
        for tag in range(5):
            eng.at(10, lambda t=tag: order.append(t))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_tracks_dispatch(self):
        eng = Engine()
        seen = []
        eng.at(7, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [7]
        assert eng.now == 7

    def test_after_is_relative(self):
        eng = Engine()
        seen = []
        eng.at(100, lambda: eng.after(5, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [105]

    def test_scheduling_in_past_rejected(self):
        eng = Engine()
        eng.at(10, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.after(-1, lambda: None)

    def test_callback_may_schedule_at_current_time(self):
        eng = Engine()
        order = []
        def first():
            order.append("first")
            eng.at(eng.now, lambda: order.append("second"))
        eng.at(3, first)
        eng.run()
        assert order == ["first", "second"]


class TestRunControl:
    def test_run_until_leaves_future_events_queued(self):
        eng = Engine()
        fired = []
        eng.at(10, lambda: fired.append(10))
        eng.at(100, lambda: fired.append(100))
        eng.run(until=50)
        assert fired == [10]
        assert eng.now == 50
        assert eng.pending == 1
        eng.run()
        assert fired == [10, 100]

    def test_stop_halts_dispatch(self):
        eng = Engine()
        fired = []
        def stopper():
            fired.append("stop")
            eng.stop()
        eng.at(1, stopper)
        eng.at(2, lambda: fired.append("late"))
        eng.run()
        assert fired == ["stop"]
        assert eng.pending == 1

    def test_max_events_guard(self):
        eng = Engine()
        def rearm():
            eng.after(1, rearm)
        eng.at(0, rearm)
        with pytest.raises(RuntimeError, match="max_events"):
            eng.run(max_events=100)

    def test_step_returns_false_on_empty(self):
        assert Engine().step() is False

    def test_events_dispatched_counter(self):
        eng = Engine()
        for i in range(4):
            eng.at(i, lambda: None)
        eng.run()
        assert eng.events_dispatched == 4

    def test_peek_time(self):
        eng = Engine()
        assert eng.peek_time() is None
        eng.at(42, lambda: None)
        assert eng.peek_time() == 42

    def test_run_until_past_bound_rejected(self):
        # A bound before ``now`` would move simulated time backwards.
        eng = Engine()
        fired = []
        eng.at(10, lambda: fired.append(10))
        eng.at(20, lambda: fired.append(20))
        eng.run(until=15)
        assert eng.now == 15
        with pytest.raises(ValueError, match="until"):
            eng.run(until=5)
        assert eng.now == 15
        assert eng.pending == 1
        eng.run()
        assert fired == [10, 20]

    def test_run_until_before_stop_point_rejected(self):
        eng = Engine()
        eng.at(3, eng.stop)
        eng.at(7, lambda: None)
        eng.run()
        assert eng.now == 3
        with pytest.raises(ValueError, match="until"):
            eng.run(until=1)
        assert eng.now == 3
        assert eng.pending == 1

    def test_run_until_now_is_allowed(self):
        eng = Engine()
        fired = []
        eng.at(5, lambda: fired.append(5))
        eng.run(until=5)
        eng.run(until=5)
        assert fired == [5]
        assert eng.now == 5
