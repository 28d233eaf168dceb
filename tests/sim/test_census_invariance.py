"""Census invariance: lazy periodic streams change *what is dispatched*,
never *what happens*.

The engine's lazy mode (the default) elides dispatches for periodic
occurrences it can reconstruct in closed form -- DRAM refresh catch-up
windows and idle core wakes -- and books them as *synthesized* so the
logical event census (``Engine.events_dispatched``) matches the eager
dispatch-per-occurrence engine exactly.  This suite pins that equivalence
at every observable layer:

* whole-system :class:`SimResult` payloads (fig9 schemes, both periodic
  modes) are byte-identical;
* golden trace digests match across eager/lazy;
* the *implied DRAM command stream* -- the PRE/ACT/RD/WR/REF sequence the
  protocol referee replays -- is identical even when idle gaps force
  multi-window refresh catch-up, and still passes the referee;
* channel StatSet snapshots (refresh counters included) are identical;
* :class:`PeriodicStream`'s closed forms agree with one-at-a-time
  eager consumption;
* the multi-tenant golden *scenario* (open-loop service layer) produces
  the committed report and trace digests in both periodic modes.

Every run passes its mode explicitly (``periodic=``); nothing here
reads or writes the process environment.
"""

import json
import os

import pytest

from repro.core.schemes import run_scheme
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.dram.compliance import ProtocolChecker
from repro.dram.timing import DDR3_1600 as T
from repro.obs.export import trace_digest
from repro.obs.golden import run_traced
from repro.sim.engine import Engine
from repro.sim.periodic import PeriodicStream

FIG9_SCHEMES = ("baseline", "doram", "doram+1")
TRACE_LENGTH = 300


# ---------------------------------------------------------------------------
# PeriodicStream closed forms vs eager consumption
# ---------------------------------------------------------------------------

class TestPeriodicStream:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicStream(0)

    def test_first_due_defaults_to_period(self):
        assert PeriodicStream(10).next_due == 10
        assert PeriodicStream(10, first_due=3).next_due == 3

    @pytest.mark.parametrize("period,first,now", [
        (10, 10, 10), (10, 10, 19), (10, 10, 55), (7, 3, 100), (1, 0, 42),
    ])
    def test_take_due_matches_one_at_a_time(self, period, first, now):
        lazy = PeriodicStream(period, first_due=first)
        eager = PeriodicStream(period, first_due=first, eager=True)
        start, count = lazy.take_due(now)
        assert start == first
        # Eager mode hands over exactly one occurrence per call; the
        # closed form must equal draining it in a loop.
        eager_times = []
        while eager.due(now):
            t, n = eager.take_due(now)
            assert n == 1
            eager_times.append(t)
        assert count == len(eager_times)
        assert eager_times == [first + i * period for i in range(count)]
        assert lazy.next_due == eager.next_due
        assert lazy.occurrences == eager.occurrences

    def test_not_due_before_deadline(self):
        stream = PeriodicStream(10)
        assert not stream.due(9)
        assert stream.due(10)

    def test_rebase(self):
        stream = PeriodicStream(10)
        stream.rebase(77)
        assert stream.next_due == 77


# ---------------------------------------------------------------------------
# Whole-system equivalence (fig9 segment)
# ---------------------------------------------------------------------------

def _fig9(scheme, periodic="lazy"):
    return run_scheme(scheme, "libq", TRACE_LENGTH, periodic=periodic)


@pytest.mark.parametrize("scheme", FIG9_SCHEMES)
class TestFig9CensusInvariance:
    def test_simresult_identical_and_census_preserved(self, scheme):
        eager = _fig9(scheme, periodic="eager")
        lazy = _fig9(scheme)
        # The serialized payload -- every metric, stat, and the logical
        # event census -- must be byte-identical.
        assert lazy.to_json_dict() == eager.to_json_dict()
        assert lazy.events == eager.events
        # Eager mode synthesizes nothing; lazy must actually dispatch
        # fewer raw events (otherwise the census machinery is dead code).
        assert eager.raw_events == eager.events
        assert lazy.raw_events < eager.raw_events


class TestGoldenDigestInvariance:
    """One scheme end-to-end with tracing on: the canonical event trace
    itself (not just aggregates) is mode-independent."""

    def _digest(self, periodic):
        _result, trace = run_traced("doram", periodic=periodic)
        return trace_digest(trace.events)

    def test_eager_lazy_digests_agree(self):
        assert self._digest("eager") == self._digest("lazy")


# ---------------------------------------------------------------------------
# Refresh catch-up vs the protocol referee
# ---------------------------------------------------------------------------

def _bursty_channel(periodic):
    """A channel fed short bursts separated by multi-tREFI idle gaps, so
    the first service after each gap owes several refresh windows."""
    eng = Engine(periodic=periodic)
    channel = Channel(eng, "ch0")
    log = channel.start_command_log()
    num_banks = channel.params.num_banks

    def burst(base):
        def feed():
            for i in range(12):
                op = OpType.WRITE if i % 3 == 0 else OpType.READ
                channel.enqueue(MemRequest(
                    op, 0, 0, bank=(base + i) % num_banks, row=(base + i) % 5,
                ))
        return feed

    # Gaps of ~2.5x, ~4.2x, and ~1.1x tREFI: catch-up batches of
    # different depths, plus one ordinary single-window refresh.
    for burst_idx, gap_mult in enumerate((0.0, 2.5, 6.7, 7.8)):
        eng.at(int(T.tREFI * gap_mult), burst(burst_idx * 3))
    eng.run()
    return eng, channel, log


class TestRefreshCatchUpInvariance:
    def test_command_streams_identical_and_compliant(self):
        eng_eager, ch_eager, log_eager = _bursty_channel("eager")
        eng_lazy, ch_lazy, log_lazy = _bursty_channel("lazy")

        refs = [c for c in log_eager if c.kind == "REF"]
        assert len(refs) >= 7, "gaps failed to force refresh catch-up"
        # The implied command streams -- including every back-dated REF
        # window inside the catch-up batches -- must be identical.
        assert log_lazy == log_eager
        # And both must satisfy the independent JEDEC referee.
        checker = ProtocolChecker(T, ch_eager.params.num_banks)
        assert checker.check(log_eager) == []
        assert checker.check(log_lazy) == []

    def test_stats_and_census_identical(self):
        eng_eager, ch_eager, _ = _bursty_channel("eager")
        eng_lazy, ch_lazy, _ = _bursty_channel("lazy")
        assert ch_lazy.stats.as_dict() == ch_eager.stats.as_dict()
        assert ch_lazy.rank.refreshes == ch_eager.rank.refreshes
        assert eng_lazy.events_dispatched == eng_eager.events_dispatched
        assert eng_lazy.now == eng_eager.now
        # The batched windows really were elided from the dispatch count.
        assert eng_lazy.raw_events_dispatched < eng_eager.raw_events_dispatched
        assert (
            eng_lazy.raw_events_dispatched + eng_lazy.events_synthesized
            == eng_lazy.events_dispatched
        )


# ---------------------------------------------------------------------------
# Multi-tenant scenario invariance (the PR-6 service layer)
# ---------------------------------------------------------------------------

_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "obs", "golden_digests.json",
)
with open(os.path.normpath(_GOLDEN_PATH)) as _fp:
    _SCENARIO_GOLDEN = json.load(_fp)["scenario"]


class TestScenarioCensusInvariance:
    """The golden 4-tenant scenario pinned in both periodic modes.

    The service layer keeps every component on the poll-free side of the
    census contract (no NS cores, drain via ``engine.stop()``), so the
    full SLO report, the logical event census, *and* the canonical event
    trace must be identical in both modes -- and must match the
    committed goldens (regen via tools/regen_goldens.py after
    intentional changes).
    """

    def _run(self, periodic):
        from repro.obs.tracer import Tracer
        from repro.scenarios import golden_scenario_config, run_scenario

        tracer = Tracer()
        result = run_scenario(golden_scenario_config(), tracer=tracer,
                              periodic=periodic)
        return result, trace_digest(tracer.events)

    @pytest.mark.parametrize("periodic", ["lazy", "eager"])
    def test_matches_committed_goldens(self, periodic):
        result, digest = self._run(periodic)
        assert result.report_digest() == _SCENARIO_GOLDEN["report"]
        assert digest == _SCENARIO_GOLDEN["trace"]

    def test_census_and_report_identical_across_modes(self):
        lazy, _ = self._run("lazy")
        eager, _ = self._run("eager")
        assert lazy.to_json_dict() == eager.to_json_dict()
        assert lazy.events == eager.events
        assert lazy.end_time == eager.end_time
