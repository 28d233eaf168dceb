"""Booked no-op completions: the engine ledger's edge cases.

Inside the whole-run lazy loop, a channel books completions that do
nothing (``ignore_completion``, and the non-last members of a
``CompletionGroup``) instead of pushing them: each takes the seq its
event would have taken and counts as one synthesized event.  When
``Engine.run`` exits, the ledger is settled so the engine looks exactly
as if the events had been pushed.  ``periodic="eager"`` dispatches every
one of them and is the oracle here.  A lane group books a slot's
completions on every lane as one booking of several seqs; its oracle is
the same completions booked one at a time.  The same loop serves a
channel's back-to-back slots in one dispatch (a service run), so the
exact synthesized counts below include its continued slots.
"""

import pytest

from repro.dram.channel import Channel
from repro.dram.commands import (
    CompletionGroup,
    MemRequest,
    OpType,
    ignore_completion,
)
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine


def _write(bank=0, row=0, on_complete=ignore_completion):
    return MemRequest(OpType.WRITE, 0, 0, bank, row, 0, -1,
                      on_complete=on_complete)


def _write_finish():
    """Completion tick of one write into an idle channel at t=0."""
    eng = Engine(periodic="eager")
    channel = Channel(eng, "ch0")
    seen = []
    channel.enqueue(_write(on_complete=seen.append))
    eng.run()
    return seen[0]


def _stopped_at_booking(periodic):
    """A stop event scheduled *before* the write is serviced, at exactly
    the write's completion tick: it owns a lower seq on that tick, so the
    booked completion (same tick, later seq) is still owed at the stop."""
    finish = _write_finish()
    eng = Engine(periodic=periodic)
    channel = Channel(eng, "ch0")
    eng.at(finish, eng.stop)
    channel.enqueue(_write())
    return eng, finish


def _snapshot(eng):
    return (eng.events_dispatched, eng.now, eng.pending)


class TestSettlement:
    def test_stop_on_a_booked_tick_leaves_the_later_seq_queued(self):
        lazy, finish = _stopped_at_booking("lazy")
        eager, _ = _stopped_at_booking("eager")
        lazy.run()
        eager.run()
        assert lazy.now == finish
        assert _snapshot(lazy) == _snapshot(eager)
        # The completion is owed, not counted: it is back on the heap.
        assert lazy.pending == 1
        assert lazy.events_synthesized == 0
        # Resuming dispatches it as a real event, like eager does.
        lazy.run()
        eager.run()
        assert _snapshot(lazy) == _snapshot(eager)
        assert lazy.raw_events_dispatched == eager.raw_events_dispatched

    def test_drained_run_ends_at_the_last_booked_finish(self):
        finish = _write_finish()
        runs = {}
        for periodic in ("lazy", "eager"):
            eng = Engine(periodic=periodic)
            channel = Channel(eng, "ch0")
            channel.enqueue(_write())
            eng.run()
            runs[periodic] = eng
        lazy, eager = runs["lazy"], runs["eager"]
        assert lazy.now == eager.now == finish
        assert lazy.events_dispatched == eager.events_dispatched
        # The write's completion really was booked, not dispatched.
        assert lazy.events_synthesized == 1
        assert lazy.raw_events_dispatched == eager.raw_events_dispatched - 1

    def test_exception_settles_like_a_stop(self):
        finish = _write_finish()
        runs = {}
        for periodic in ("lazy", "eager"):
            eng = Engine(periodic=periodic)
            channel = Channel(eng, "ch0")

            def boom():
                raise KeyError("boom")

            eng.at(finish, boom)
            channel.enqueue(_write())
            with pytest.raises(KeyError):
                eng.run()
            runs[periodic] = eng
        assert _snapshot(runs["lazy"]) == _snapshot(runs["eager"])

    def test_group_completes_once_at_its_last_member(self):
        """Only the last-serviced member carries the callback; the rest
        complete as no-ops, booked in lazy mode and dispatched in eager.
        Lazy mode synthesizes four occurrences: the two booked
        completions, and the second and third slots, which the first
        service serves in its own dispatch (nothing else is due before
        them).  It dispatches two events: that service and the
        callback's completion."""
        results = {}
        for periodic in ("lazy", "eager"):
            eng = Engine(periodic=periodic)
            channel = Channel(eng, "ch0")
            done = []
            group = CompletionGroup(3, done.append)
            for row in range(3):
                channel.enqueue(MemRequest(OpType.READ, 0, 0, row, row, 0, -1,
                                           on_complete=group))
            eng.run()
            results[periodic] = (done, eng.events_dispatched, eng.now,
                                 eng.events_synthesized)
        lazy, eager = results["lazy"], results["eager"]
        assert len(lazy[0]) == 1
        assert lazy[:3] == eager[:3]
        assert lazy[3] == 2 + 2 and eager[3] == 0


class TestNeverBooks:
    """Only the untraced whole-run lazy loop books or continues a slot:
    every other run dispatches every completion and every service."""

    def _channel_with_writes(self, **engine_kwargs):
        eng = Engine(**engine_kwargs)
        channel = Channel(eng, "ch0")
        for bank in range(4):
            channel.enqueue(_write(bank=bank))
        return eng

    def test_step(self):
        eng = self._channel_with_writes()
        while eng.step():
            pass
        assert eng.events_synthesized == 0
        assert eng.raw_events_dispatched == eng.events_dispatched

    def test_engine_trace_category(self):
        eng = self._channel_with_writes(tracer=Tracer({"engine"}))
        eng.run()
        assert eng.events_synthesized == 0
        assert eng.raw_events_dispatched == eng.events_dispatched

    def test_whole_run_lazy_books_all_four(self):
        """All four completions are booked; the four services are one
        run, served in the first one's dispatch, so the last three are
        synthesized too and the run dispatches one event."""
        eng = self._channel_with_writes()
        eng.run()
        assert eng.events_synthesized == 4 + 3
        assert eng.raw_events_dispatched == 1

    def test_eager(self):
        eng = self._channel_with_writes(periodic="eager")
        eng.run()
        assert eng.events_synthesized == 0
        assert eng.raw_events_dispatched == eng.events_dispatched == 8


class TestLedgerPruning:
    def test_long_run_keeps_the_ledger_small_and_exact(self):
        """Thousands of bookings: pruning keeps only those not yet due,
        and the census and end time still match eager."""
        runs = {}
        for periodic in ("lazy", "eager"):
            eng = Engine(periodic=periodic)
            channel = Channel(eng, "ch0")
            peak = [0]

            def feed(i=0, eng=eng, channel=channel, peak=peak):
                if eng._ledger is not None:
                    peak[0] = max(peak[0], len(eng._ledger))
                if i < 3000:
                    if channel.can_accept(OpType.WRITE):
                        channel.enqueue(_write(bank=i % 8, row=i % 3))
                        i += 1
                    eng.after(40, lambda: feed(i))

            eng.at(0, feed)
            eng.run()
            runs[periodic] = (eng.events_dispatched, eng.now, peak[0])
        assert runs["lazy"][:2] == runs["eager"][:2]
        assert runs["lazy"][2] <= 1025


def _noop(time):
    """A completion that does nothing (the kind that is booked)."""


#: A run of RUN_COUNT completions at RUN_FINISH, every other seq; the
#: seqs between them belong to real events at the same tick.
RUN_COUNT = 4
RUN_FINISH = 100


def _run_booking_engine(as_run, exit_at):
    """A lazy engine that books RUN_COUNT completions at RUN_FINISH, as
    one run booking or as RUN_COUNT single ones, each seq followed by a
    real same-tick event's.  ``exit_at`` is where the run leaves the
    loop: ``None`` (drain), ``("stop", i)``/``("raise", i)`` in the i-th
    real event, or ``("stop", "early")`` in an event before RUN_FINISH."""
    eng = Engine()
    fired = []

    def real(i):
        def fire():
            fired.append((i, eng.now))
            if exit_at == ("stop", i):
                eng.stop()
            elif exit_at == ("raise", i):
                raise KeyError("boom")
        return fire

    def setup():
        seqs = []
        for i in range(RUN_COUNT):
            seqs.append(eng._seq)
            eng._seq += 1
            eng.at(RUN_FINISH, real(i))
        if as_run:
            eng.book(RUN_FINISH, seqs[0], _noop, RUN_COUNT, 2)
        else:
            for seq in seqs:
                eng.book(RUN_FINISH, seq, _noop)

    eng.at(0, setup)
    if exit_at == ("stop", "early"):
        eng.at(RUN_FINISH // 2, eng.stop)
    return eng, fired


def _settled(eng, fired):
    """The engine's state: queued ``(time, seq, is a booked completion)``
    entries, pending, events, synthesized, raw, now, real events fired."""
    queue = [(time, seq, callback is _noop)
             for time, seq, callback, _arg in sorted(eng._queue)]
    return (queue, eng.pending, eng.events_dispatched,
            eng.events_synthesized, eng.raw_events_dispatched, eng.now,
            list(fired))


class TestRunBookings:
    """A booking of k completions settles exactly as its k expanded
    one-completion bookings: the late entries pushed, ``pending``,
    ``events`` and ``now`` at exit, and a resumed run."""

    @pytest.mark.parametrize("exit_at", [
        None, ("stop", 1), ("stop", 3), ("stop", "early"), ("raise", 0),
        ("raise", 2),
    ], ids=["drain", "stop-mid-run", "stop-after-run", "stop-before-run",
            "raise-first", "raise-mid-run"])
    def test_settles_like_its_expanded_bookings(self, exit_at):
        outcomes = []
        for as_run in (True, False):
            eng, fired = _run_booking_engine(as_run, exit_at)
            if exit_at is not None and exit_at[0] == "raise":
                with pytest.raises(KeyError):
                    eng.run()
            else:
                eng.run()
            at_exit = _settled(eng, fired)
            eng.run()
            outcomes.append((at_exit, _settled(eng, fired)))
        assert outcomes[0] == outcomes[1]
        (queue, pending, events, synthesized, raw, now, _), resumed = \
            outcomes[0]
        owed = {None: 0, ("stop", 1): 2, ("stop", 3): 0,
                ("stop", "early"): 4, ("raise", 0): 3,
                ("raise", 2): 1}[exit_at]
        # The owed completions are back on the heap as real events,
        # un-counted until dispatched.
        assert sum(noop for _time, _seq, noop in queue) == owed
        assert synthesized == RUN_COUNT - owed
        if exit_at is None:
            assert now == RUN_FINISH and pending == 0
        # Resumed, every event counts once: the setup, the real events,
        # the completions and any early stop.
        assert resumed[2] == 1 + 2 * RUN_COUNT + (exit_at == ("stop", "early"))
        assert resumed[5] == RUN_FINISH

    def test_pruning_keeps_a_run_until_it_is_due(self):
        """Past its cap the ledger drops the bookings timed before
        ``now``, runs included, and each still counts every completion."""
        eng = Engine()
        ledgers = []

        def book(time, count):
            seq = eng._seq
            eng._seq += count
            eng._ledger_cap = 0  # prune at this booking
            eng.book(time, seq, _noop, count)
            ledgers.append([(at, first, n) for at, first, _callback, n,
                            _stride in eng._ledger])

        eng.at(0, lambda: book(10, 2))
        eng.at(10, lambda: book(30, 1))
        eng.at(20, lambda: book(30, 3))
        eng.run()
        assert ledgers == [
            [(10, 3, 2)],
            [(10, 3, 2), (30, 5, 1)],
            [(30, 5, 1), (30, 6, 3)],
        ]
        assert eng.events_synthesized == 6
        assert eng.now == 30
