"""Channel.notify_on_space semantics under the optimized service loop.

The space-waiter path is load-bearing for back-pressure correctness:
every router and BOB hold queue relies on "one-shot, fires after a queue
entry drains, re-registration during the callback defers to the next
drain".  These tests pin that contract directly (the integration suites
only exercise it incidentally).
"""

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.dram.timing import ChannelParams
from repro.sim.engine import Engine


def make_channel(**params):
    eng = Engine()
    ch = Channel(eng, "ch0", params=ChannelParams(**params))
    return eng, ch


def read(bank=0, row=0, cb=None):
    return MemRequest(OpType.READ, 0, 0, bank=bank, row=row, on_complete=cb)


class TestNotifyOnSpace:
    def test_waiter_fires_after_first_service(self):
        eng, ch = make_channel(read_queue_depth=2)
        ch.enqueue(read(row=1))
        ch.enqueue(read(row=2))
        woken = []
        ch.notify_on_space(lambda: woken.append(eng.now))
        eng.run()
        assert len(woken) == 1

    def test_waiter_is_one_shot(self):
        eng, ch = make_channel()
        for row in range(4):
            ch.enqueue(read(row=row))
        woken = []
        ch.notify_on_space(lambda: woken.append(eng.now))
        eng.run()
        # Four services drained, but the waiter fired exactly once.
        assert len(woken) == 1

    def test_all_waiters_fire_on_one_drain(self):
        eng, ch = make_channel()
        ch.enqueue(read())
        woken = []
        for tag in range(3):
            ch.notify_on_space(lambda t=tag: woken.append(t))
        eng.run()
        assert woken == [0, 1, 2]  # registration order preserved

    def test_reregistration_during_callback_defers_to_next_drain(self):
        eng, ch = make_channel()
        ch.enqueue(read(row=1))
        ch.enqueue(read(row=2))
        fires = []

        def rearm():
            fires.append(eng.now)
            if len(fires) < 2:
                ch.notify_on_space(rearm)

        ch.notify_on_space(rearm)
        eng.run()
        # The re-registered waiter must not fire inside the same drain:
        # one fire per serviced request, at distinct times.
        assert len(fires) == 2
        assert fires[0] < fires[1]

    def test_waiter_may_refill_the_queue(self):
        eng, ch = make_channel(read_queue_depth=1)
        done = []
        state = {"issued": 0}

        def feed():
            if state["issued"] < 5 and ch.can_accept(OpType.READ):
                row = state["issued"]
                state["issued"] += 1
                ch.enqueue(read(row=row, cb=done.append))
            if state["issued"] < 5:
                ch.notify_on_space(feed)

        feed()
        eng.run()
        assert state["issued"] == 5
        assert len(done) == 5
        assert done == sorted(done)


class TestOneServiceChain:
    def test_waiter_enqueue_joins_the_running_chain(self):
        """A waiter that enqueues into this channel from inside
        ``_service`` must not kick a second service chain: the channel
        would decide FR-FCFS twice per slot until its queue emptied."""
        eng, ch = make_channel(read_queue_depth=1)
        done = []
        ch.enqueue(read(row=1, cb=done.append))
        ch.notify_on_space(lambda: ch.enqueue(read(row=2, cb=done.append)))
        assert eng.step()  # the first service, which wakes the waiter
        chains = [entry for entry in eng._queue if entry[2] == ch._service]
        assert len(chains) == 1
        eng.run()
        assert len(done) == 2 and not ch.queued
        assert not ch._service_scheduled
