"""Service runs: a channel's back-to-back slots served in one dispatch.

Inside the untraced whole-run lazy loop, a channel whose next service
would be the engine's next pop (its tick strictly before the queue head,
or the queue empty) serves that slot in the same dispatch instead of
pushing it: it keeps the seq it took, sets ``now`` and counts the slot
as one synthesized occurrence.  ``periodic="eager"`` dispatches every
slot and is the oracle.  When a run stops or raises inside a continued
slot, that slot, not the dispatched event, is the exit event the ledger
is settled against, so the engine is left exactly as eager leaves it.
(That every other kind of run dispatches every service is pinned by
``tests/sim/test_booked_completions.py::TestNeverBooks``.)
"""

import pytest

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, ignore_completion
from repro.sim.engine import Engine

#: Slots in the rig's run, and the slot its space waiter acts in.
SLOTS = 6
ACT_AT = 3


def _rig(periodic, action, act_at=ACT_AT):
    """One channel with SLOTS writes (no-op completions, booked in lazy
    mode), each to its own bank, and a space waiter that re-arms itself
    every slot and, in slot ``act_at``, calls ``action`` (``"stop"`` or
    ``"raise"``)."""
    eng = Engine(periodic=periodic)
    channel = Channel(eng, "ch0")
    calls = []

    def waiter():
        calls.append(eng.now)
        if len(calls) < SLOTS:
            channel.notify_on_space(waiter)
        if len(calls) == act_at:
            if action == "stop":
                eng.stop()
            else:
                raise KeyError("boom")

    for bank in range(SLOTS):
        channel.enqueue(MemRequest(OpType.WRITE, 0, 0, bank, 0, 0, -1,
                                   on_complete=ignore_completion))
    channel.notify_on_space(waiter)
    return eng, calls


def _state(eng, calls):
    """Everything a later reader can see: the census, the clock, the
    pending count, the queued ``(time, seq)`` entries, the waiter's
    calls."""
    queued = sorted((time, seq) for time, seq, _cb, _arg in eng._queue)
    return (eng.events_dispatched, eng.now, eng.pending, queued,
            list(calls))


def _run(eng, action):
    if action == "raise":
        with pytest.raises(KeyError):
            eng.run()
    else:
        eng.run()


class TestExitInAContinuedSlot:
    # The first continued slot, one mid-run, and the last, which
    # leaves no next service.
    @pytest.mark.parametrize("act_at", [2, ACT_AT, SLOTS])
    @pytest.mark.parametrize("action", ["stop", "raise"])
    def test_exit_leaves_the_engine_as_eager_leaves_it(self, action,
                                                        act_at):
        """The run ends in slot ``act_at``, which lazy mode serves in
        the first slot's dispatch: ``events_dispatched``, ``now``, the
        pending queue, and a resumed run all equal eager's."""
        outcomes = {}
        for periodic in ("lazy", "eager"):
            eng, calls = _rig(periodic, action, act_at)
            _run(eng, action)
            at_exit = _state(eng, calls)
            raw_at_exit = eng.raw_events_dispatched
            eng.run()
            outcomes[periodic] = (at_exit, _state(eng, calls), raw_at_exit)
        lazy, eager = outcomes["lazy"], outcomes["eager"]
        assert lazy[:2] == eager[:2]
        # Lazy mode really exited inside a continued slot: one dispatch.
        assert lazy[2] == 1
        # The waiter ran in slots 1..act_at before the exit.
        assert len(lazy[0][4]) == act_at

    def test_stop_ends_the_run_at_that_slot(self):
        """A waiter's ``stop()`` freezes time at its slot and leaves the
        next slot's service queued, not served."""
        lazy, calls = _rig("lazy", "stop")
        lazy.run()
        assert lazy.now == calls[-1]
        assert len(calls) == ACT_AT
        services = [time for time, _seq, callback, _arg in lazy._queue
                    if callback.__name__ == "_service"]
        assert len(services) == 1 and services[0] > lazy.now
