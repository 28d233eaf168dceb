"""Property-based tests on the event engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine

schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),  # delay
        st.integers(min_value=0, max_value=99),    # payload tag
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(plan=schedules)
def test_dispatch_order_is_time_then_fifo(plan):
    eng = Engine()
    fired = []
    for i, (delay, tag) in enumerate(plan):
        eng.at(delay, lambda d=delay, i=i, t=tag: fired.append((d, i, t)))
    eng.run()
    # Sorted by (time, insertion order) -- exactly the dispatch contract.
    assert fired == sorted(fired, key=lambda e: (e[0], e[1]))


@settings(max_examples=60, deadline=None)
@given(plan=schedules)
def test_runs_are_deterministic(plan):
    def run_once():
        eng = Engine()
        fired = []
        for delay, tag in plan:
            eng.at(delay, lambda d=delay, t=tag: fired.append((eng.now, t)))
        eng.run()
        return fired, eng.events_dispatched

    assert run_once() == run_once()


@settings(max_examples=60, deadline=None)
@given(plan=schedules, cut=st.integers(min_value=0, max_value=1000))
def test_stop_is_a_prefix_of_full_run(plan, cut):
    def schedule(eng, fired):
        for delay, tag in plan:
            eng.at(delay, lambda d=delay, t=tag: fired.append((d, t)))

    full_eng, full = Engine(), []
    schedule(full_eng, full)
    full_eng.run()

    part_eng, part = Engine(), []
    schedule(part_eng, part)
    # Scheduled last, the stop fires after every event due at `cut`.
    part_eng.at(cut, part_eng.stop)
    part_eng.run()
    prefix = [e for e in full if e[0] <= cut]
    assert part == prefix
    # Resuming completes the identical sequence.
    part_eng.run()
    assert part == full


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(st.integers(min_value=1, max_value=50),
                    min_size=1, max_size=20),
)
def test_cascading_events_preserve_causality(delays):
    """Events scheduled from inside events always fire at or after the
    scheduling event's time."""
    eng = Engine()
    times = []

    def chain(remaining):
        times.append(eng.now)
        if remaining:
            eng.after(remaining[0], lambda: chain(remaining[1:]))

    eng.at(0, lambda: chain(delays))
    eng.run()
    assert times == sorted(times)
    assert times[-1] == sum(delays)
