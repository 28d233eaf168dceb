"""NS router hold/drain re-entrancy, over both fabrics.

``NsRouter._drain`` swaps the held list out and re-sends each entry;
while that is in flight, the target's ``enqueue`` -> ``_wake`` can run
arbitrary waiter callbacks that issue *new* requests back into the same
router (exactly what a core does when its port reports space).  Every
request must be serviced exactly once -- no drops when the target fills
mid-drain, no double-sends of re-held entries.  The cases run against a
direct channel (``TestSendOrHold``) and against a one-sub-channel
``BobChannel`` whose window is the direct channel's queue depth
(``TestSendOrHoldOverBob``).
"""

from collections import Counter

from repro.bob.channel import BobChannel
from repro.core.system import NsRouter
from repro.dram.channel import Channel
from repro.dram.commands import OpType
from repro.dram.timing import ChannelParams
from repro.sim.engine import Engine


def make_router(read_queue_depth=2, hold_cap=64, fabric="direct"):
    eng = Engine()
    channel = Channel(
        eng, "ch0",
        params=ChannelParams(read_queue_depth=read_queue_depth),
    )
    if fabric == "direct":
        router = NsRouter.direct(
            eng, {(0, 0): channel}, [(0, 0)], app_id=0, app_slot=0,
            hold_cap=hold_cap,
        )
    else:
        bob = BobChannel(eng, 0, [channel], window=read_queue_depth)
        router = NsRouter.bob(eng, {0: bob}, (0,), app_id=0, app_slot=0,
                              hold_cap=hold_cap)
    return eng, channel, router


class TestSendOrHold:
    fabric = "direct"

    def make_router(self, **kwargs):
        return make_router(fabric=self.fabric, **kwargs)

    def test_overflow_is_held_then_drained(self):
        eng, channel, router = self.make_router(read_queue_depth=2)
        done = Counter()
        for line in range(8):
            router.issue(OpType.READ, line, 0, lambda _t, l=line: done.update([l]))
        assert len(router._held) == 6  # the target took 2, the rest held
        eng.run()
        assert sorted(done) == list(range(8))
        assert all(count == 1 for count in done.values())
        assert router._held == []

    def test_reentrant_issue_during_drain_not_dropped(self):
        # A completion issues a follow-up request; completions dispatch
        # while the router still has held entries, so the new issue runs
        # against a draining router.
        eng, channel, router = self.make_router(read_queue_depth=1)
        done = Counter()
        followups = []

        def complete(_time, line):
            done.update([line])
            if line < 4:  # chain: 0 -> 10 -> ... (disjoint line numbers)
                follow = line + 10
                followups.append(follow)
                router.issue(
                    OpType.READ, follow, 0,
                    lambda _t, l=follow: done.update([l]),
                )

        for line in range(5):
            router.issue(OpType.READ, line, 0,
                         lambda t, l=line: complete(t, l))
        eng.run()
        expected = list(range(5)) + followups
        assert sorted(done) == sorted(expected)
        assert all(count == 1 for count in done.values())
        assert router._held == []

    def test_space_waiter_issuing_into_drain_keeps_fifo_per_request(self):
        # The port-level waiter (what a Core registers) fires from _wake
        # during _drain's enqueue loop; its issue must coexist with the
        # remaining held entries without dropping either.
        eng, channel, router = self.make_router(read_queue_depth=1, hold_cap=4)
        done = Counter()

        def fill(start, n):
            for line in range(start, start + n):
                if not router.can_accept(OpType.READ):
                    router.notify_on_space(lambda s=line, e=start + n - line:
                                           fill(s, e))
                    return
                router.issue(OpType.READ, line, 0,
                             lambda _t, l=line: done.update([l]))

        fill(0, 10)
        eng.run()
        assert sorted(done) == list(range(10))
        assert all(count == 1 for count in done.values())
        assert router._held == []


class TestSendOrHoldOverBob(TestSendOrHold):
    fabric = "bob"
