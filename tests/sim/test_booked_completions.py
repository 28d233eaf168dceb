"""Booked no-op completions: the engine ledger's edge cases.

Inside the whole-run lazy loop, a channel books completions that do
nothing (``ignore_completion``, and the non-last members of a
``CompletionGroup``) instead of pushing them: each takes the seq its
event would have taken and counts as one synthesized event.  When
``Engine.run`` exits, the ledger is settled so the engine looks exactly
as if the events had been pushed.  ``periodic="eager"`` dispatches every
one of them and is the oracle here.
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
        complete as no-ops, booked in lazy mode and dispatched in eager."""
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
        assert lazy[3] == 2 and eager[3] == 0


class TestNeverBooks:
    """Only the untraced whole-run lazy loop books."""

    def _channel_with_writes(self, **engine_kwargs):
        eng = Engine(**engine_kwargs)
        channel = Channel(eng, "ch0")
        for bank in range(4):
            channel.enqueue(_write(bank=bank))
        return eng

    def test_run_until(self):
        eng = self._channel_with_writes()
        eng.run(until=10**6)
        assert eng.events_synthesized == 0
        assert eng.raw_events_dispatched == eng.events_dispatched

    def test_max_events(self):
        eng = self._channel_with_writes()
        eng.run(max_events=10**6)
        assert eng.events_synthesized == 0

    def test_step(self):
        eng = self._channel_with_writes()
        while eng.step():
            pass
        assert eng.events_synthesized == 0

    def test_engine_trace_category(self):
        eng = self._channel_with_writes(tracer=Tracer({"engine"}))
        eng.run()
        assert eng.events_synthesized == 0

    def test_whole_run_lazy_books_all_four(self):
        eng = self._channel_with_writes()
        eng.run()
        assert eng.events_synthesized == 4

    def test_eager(self):
        eng = self._channel_with_writes(periodic="eager")
        eng.run()
        assert eng.events_synthesized == 0


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
