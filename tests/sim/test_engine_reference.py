"""Differential testing: optimized Engine vs a kept-simple reference.

The production :class:`Engine` earns its speed with a same-tick batch
loop, a specialized no-trace fast path, tombstoned cancellation, and the
``(callback, arg)`` form.  This suite replays identical random programs
-- including callbacks that schedule and cancel further events -- on the
real engine and on a deliberately naive scheduler (sorted list, one event
at a time, no batching), and requires bit-identical dispatch sequences
and counts.  Any future hot-path change that bends dispatch semantics
fails here with a minimal counterexample rather than as a golden-digest
mismatch three layers up.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine


class ReferenceEngine:
    """The obviously-correct scheduler the Engine must agree with.

    Deliberately naive: events live in a plain list, every dispatch
    re-sorts and pops the global ``(time, seq)`` minimum, cancellation
    removes the entry outright.  No batching, no fast paths.
    """

    def __init__(self):
        self.now = 0
        self._events = []
        self._seq = 0
        self.events_dispatched = 0

    def at(self, time, callback):
        if time < self.now:
            raise ValueError("past")
        entry = [time, self._seq, callback, None, False]
        self._seq += 1
        self._events.append(entry)
        return entry

    def call_at(self, time, callback, arg):
        if time < self.now:
            raise ValueError("past")
        entry = [time, self._seq, callback, arg, True]
        self._seq += 1
        self._events.append(entry)
        return entry

    def cancel(self, entry):
        if entry in self._events:
            self._events.remove(entry)
            return True
        return False

    def run(self):
        events = self._events
        while events:
            events.sort(key=lambda e: (e[0], e[1]))
            time, _seq, callback, arg, has_arg = events.pop(0)
            self.now = time
            self.events_dispatched += 1
            if has_arg:
                callback(arg)
            else:
                callback()


# One program step: (delay, tag, spawn?, spawn_delay, use_arg_form?,
# cancel_index or None).  Everything downstream is a pure function of
# these values, so both engines see the identical program.
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),          # initial delay
        st.integers(min_value=0, max_value=9999),        # tag
        st.booleans(),                                   # spawn a child?
        st.integers(min_value=0, max_value=20),          # child delay
        st.booleans(),                                   # call_at form?
        st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    ),
    min_size=1,
    max_size=40,
)


def run_program(engine_cls, plan):
    eng = engine_cls()
    fired = []
    handles = []

    def make_cb(tag, spawn, child_delay, use_arg, cancel_idx, depth):
        def body(arg=None):
            fired.append((eng.now, tag, depth, arg))
            if cancel_idx is not None and handles:
                eng.cancel(handles[cancel_idx % len(handles)])
            if spawn and depth < 3:
                child = make_cb(tag + 1, spawn, child_delay, use_arg,
                                cancel_idx, depth + 1)
                when = eng.now + child_delay
                if use_arg:
                    handles.append(eng.call_at(when, child, tag * depth))
                else:
                    handles.append(eng.at(when, child))
        if use_arg:
            return body
        return lambda: body()

    for delay, tag, spawn, child_delay, use_arg, cancel_idx in plan:
        cb = make_cb(tag, spawn, child_delay, use_arg, cancel_idx, 0)
        if use_arg:
            handles.append(eng.call_at(delay, cb, tag))
        else:
            handles.append(eng.at(delay, cb))
    eng.run()
    return fired, eng.events_dispatched


@settings(max_examples=200, deadline=None)
@given(plan=steps)
def test_engine_matches_reference_scheduler(plan):
    got = run_program(Engine, plan)
    want = run_program(ReferenceEngine, plan)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(plan=steps)
def test_engine_self_consistent_across_runs(plan):
    # The optimized engine against itself: scheduling from callbacks and
    # cancellation must not introduce any run-to-run nondeterminism.
    assert run_program(Engine, plan) == run_program(Engine, plan)
