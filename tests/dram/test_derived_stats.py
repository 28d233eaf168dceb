"""Derived channel statistics against the per-request record.

A serviced request records one statistic, its (op, class) latency; the
rest of ``Channel.stats``, ``utilization()`` and ``row_hit_rate()`` are
derived when read (``repro.dram.channel``, "Statistics").  Each traced
burst carries its op, class, latency and row outcome, and each refresh
window is a ``refresh`` event, so the bursts and windows a lane emitted
rebuild, one request at a time, every statistic the pre-derivation
channel recorded per request.  The rebuilt values must equal the derived
ones on a lone channel and on every lane of a lane group, while it is
live and after it wakes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.scheduler import SharePolicy
from repro.dram.timing import ChannelParams
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, ns
from repro.sim.stats import StatSet
from tests.dram.test_lane_groups import Rig

#: Past one refresh interval (tREFI = 7.8 us), so a window is serviced.
REFRESH_NS = 9_000

_COUNTERS = ("reads_serviced", "writes_serviced", "row_hit", "row_closed",
             "row_conflict", "refreshes")
_LATENCIES = ("read_latency", "normal_read_latency", "secure_read_latency",
              "write_latency", "normal_write_latency",
              "secure_write_latency")


def rebuilt(events, track, now):
    """``(stats.as_dict(), utilization, row_hit_rate)`` recorded request
    by request from ``track``'s bursts and refresh windows."""
    stats = StatSet(track)
    for name in _COUNTERS:
        stats.counter(name)
    for name in _LATENCIES:
        stats.latency(name)
    busy = 0
    for event in events:
        if event.cat != "dram" or event.track != track:
            continue
        if event.name == "refresh":
            stats.counter("refreshes").add()
        elif event.name in ("read", "write"):
            args = event.args
            stats.latency(f"{event.name}_latency").record(args["lat"])
            stats.latency(f"{args['cls']}_{event.name}_latency").record(
                args["lat"])
            stats.counter(f"{event.name}s_serviced").add()
            stats.counter(f"row_{args['outcome']}").add()
            busy += event.dur
    hits = stats.counter("row_hit").value
    total = hits + stats.counter("row_closed").value \
        + stats.counter("row_conflict").value
    return (stats.as_dict(), busy / now if now else 0.0,
            hits / total if total else 0.0)


def check(lane, tracer):
    now = lane.engine.now
    assert (lane.stats.as_dict(), lane.utilization(), lane.row_hit_rate()) \
        == rebuilt(tracer.events, lane.name, now)


@settings(max_examples=40, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, REFRESH_NS), st.integers(0, 3),
                  st.integers(0, 3), st.booleans(), st.booleans()),
        min_size=1, max_size=120),
    probe_ns=st.integers(0, REFRESH_NS),
)
def test_one_channel_derives_what_it_serviced(requests, probe_ns):
    """Random reads and writes of both classes past a refresh window;
    checked mid-run and at the end."""
    tracer = Tracer({"dram"})
    engine = Engine()
    channel = Channel(engine, "ch0", share_policy=SharePolicy(0.5),
                      tracer=tracer,
                      params=ChannelParams(
                          num_banks=4, read_queue_depth=8,
                          write_queue_depth=8, write_drain_hi=6,
                          write_drain_lo=2))

    def offer(bank, row, write, secure):
        op = OpType.WRITE if write else OpType.READ
        if channel.can_accept(op):
            channel.enqueue(MemRequest(
                op, 0, 0, bank, row, traffic=(
                    TrafficClass.SECURE if secure else TrafficClass.NORMAL),
                on_complete=lambda t: None))

    for at_ns, *request in requests + [(REFRESH_NS, 0, 0, False, False)]:
        engine.at(ns(at_ns), lambda request=request: offer(*request))
    engine.at(ns(probe_ns), lambda: check(channel, tracer))
    engine.run()
    assert channel.rank.refreshes >= 1
    check(channel, tracer)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 50),
    wake_ns=st.integers(1_000, 8_000),
    probe_ns=st.integers(0, 1_000),
    traffic=st.lists(
        st.tuples(st.integers(0, 3_000), st.integers(0, 3),
                  st.integers(0, 7), st.integers(0, 3), st.booleans()),
        max_size=30),
)
def test_lane_group_lanes_derive_what_they_serviced(seed, wake_ns, probe_ns,
                                                    traffic):
    """ORAM phases on a live group (secure reads and writes), checked on
    every lane before the wake, then NS reads and writes from the wake on
    mix the classes; past a refresh window, checked on every lane."""
    tracer = Tracer({"dram"})
    rig = Rig("lazy", tracer=tracer, phases=32, seed=seed, log=False)
    bob = rig.bobs[0]

    def submit(lane, bank, row, write):
        op = OpType.WRITE if write else OpType.READ
        if bob.can_accept(op):
            bob.enqueue(MemRequest(op, 0, lane, bank, row, 0, 1,
                                   on_complete=rig.note("ns")))

    def probe():
        assert rig.live
        for lane in rig.lanes:
            check(lane, tracer)

    rig.at(probe_ns, probe)
    rig.at(wake_ns, lambda: submit(2, 1, 5, False))
    for delay_ns, lane, bank, row, write in traffic:
        rig.at(wake_ns + delay_ns,
               lambda args=(lane, bank, row, write): submit(*args))
    rig.engine.run()
    assert not rig.live
    assert rig.lanes[0].rank.refreshes >= 1
    for lane in rig.lanes:
        check(lane, tracer)
