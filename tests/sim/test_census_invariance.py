"""Census invariance: lazy mode changes *what is dispatched*, never
*what happens*.

The engine's lazy mode (the default) elides three kinds of dispatch:
booked no-op completions, the followers' services of a live lane group,
and the continued slots of a service run (a channel's next service,
served in the dispatch before it because nothing else is due first).
Each elided occurrence is counted as *synthesized*, so the logical
event census (``Engine.events_dispatched``) matches the eager
dispatch-per-occurrence engine exactly.  Everything else -- core wakes,
and the other services -- is one dispatch per occurrence in both
modes.  This suite pins that contract at every observable layer:

* whole-system :class:`SimResult` payloads (fig9 schemes, both periodic
  modes) are byte-identical, and booking really elides dispatches;
* golden trace digests match across eager/lazy;
* the *implied DRAM command stream* -- the PRE/ACT/RD/WR/REF sequence the
  protocol referee replays -- is identical even when idle gaps leave
  several refresh windows owed, and still passes the referee;
* channel StatSet snapshots (refresh counters included) are identical;
* a single idle-heavy core with no booked completion and no lane group
  dispatches every logical event in lazy mode too, but for its channels'
  continued slots;
* the multi-tenant golden *scenario* (open-loop service layer) produces
  the committed report and trace digests in both periodic modes.

Every run passes its mode explicitly (``periodic=``); nothing here
reads or writes the process environment.
"""

import json
import os

import pytest

from repro.core.schemes import run_scheme
from repro.core.system import NsRouter
from repro.cpu.core import Core
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.dram.compliance import ProtocolChecker
from repro.dram.timing import DDR3_1600 as T
from repro.obs.export import trace_digest
from repro.obs.golden import run_traced
from repro.sim.engine import Engine
from repro.trace.synthetic import SyntheticTrace, TraceParams, with_copy_seed

FIG9_SCHEMES = ("baseline", "doram", "doram+1")
TRACE_LENGTH = 300


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
        # fewer raw events (booked completions; otherwise the census
        # machinery is dead code).
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
# An idle core: one dispatch per occurrence in both modes
# ---------------------------------------------------------------------------

def _long_idle(periodic):
    """One MPKI-0.5 core over two channels: ~500 pipeline cycles between
    LLC misses, so nearly every logical event is an idle core wake or a
    refresh with nothing else due.  Direct channels book no completion
    (a core's read completion wakes it) and form no lane group, so the
    only dispatches lazy mode may elide are continued service slots."""
    eng = Engine(periodic=periodic)
    channels = {(0, 0): Channel(eng, "idle0"), (1, 0): Channel(eng, "idle1")}
    params = with_copy_seed(TraceParams(mpki=0.5, seed=11), 0)
    trace = SyntheticTrace(params, 1500).generate()
    router = NsRouter.direct(eng, channels, targets=[(0, 0), (1, 0)],
                             app_id=0, app_slot=0)
    Core(eng, 0, trace, router).start()
    eng.run()
    return eng


class TestLongIdleCensus:
    def test_lazy_dispatches_every_idle_occurrence(self):
        """Every core wake is dispatched in lazy mode too.  Of the
        296,324 logical events only 39 are synthesized: slots a channel
        served in the dispatch of its slot before, because nothing else
        was due first."""
        eager = _long_idle("eager")
        lazy = _long_idle("lazy")
        assert lazy.events_dispatched == eager.events_dispatched == 296_324
        assert lazy.now == eager.now
        assert eager.raw_events_dispatched == eager.events_dispatched
        assert lazy.events_synthesized == 39
        assert lazy.raw_events_dispatched == lazy.events_dispatched - 39


# ---------------------------------------------------------------------------
# Refresh catch-up vs the protocol referee
# ---------------------------------------------------------------------------

def _bursty_channel(periodic):
    """A channel fed short bursts separated by multi-tREFI idle gaps, so
    the first service after each gap owes several refresh windows, which
    it takes one per service."""
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

    # Gaps of ~2.5x, ~4.2x, and ~1.1x tREFI: catch-ups of different
    # depths, plus one ordinary single-window refresh.
    for burst_idx, gap_mult in enumerate((0.0, 2.5, 6.7, 7.8)):
        eng.at(int(T.tREFI * gap_mult), burst(burst_idx * 3))
    eng.run()
    return eng, channel, log


class TestRefreshCatchUpInvariance:
    def test_command_streams_identical_and_compliant(self):
        eng_eager, ch_eager, log_eager = _bursty_channel("eager")
        eng_lazy, ch_lazy, log_lazy = _bursty_channel("lazy")

        refs = [c for c in log_eager if c[1] == "REF"]
        assert len(refs) >= 7, "gaps failed to force refresh catch-up"
        # The implied command streams -- including every back-dated REF
        # window a gap left owed -- must be identical.
        assert log_lazy == log_eager
        # And both must satisfy the independent JEDEC referee.
        checker = ProtocolChecker(T, ch_eager.params.num_banks)
        assert checker.check(log_eager) == []
        assert checker.check(log_lazy) == []

    def test_stats_and_census_identical(self):
        """Every owed window is its own service, one occurrence in the
        census in both modes.  The channel's requests have no
        completion, so lazy mode books nothing; each burst's services
        after its first (51 in all, refresh windows included) run back
        to back with nothing else due, and are served in that first
        service's dispatch: the 8 dispatches are the 4 feeds and the 4
        services that start a run."""
        eng_eager, ch_eager, _ = _bursty_channel("eager")
        eng_lazy, ch_lazy, _ = _bursty_channel("lazy")
        assert ch_lazy.stats.as_dict() == ch_eager.stats.as_dict()
        assert ch_lazy.rank.refreshes == ch_eager.rank.refreshes
        assert eng_lazy.events_dispatched == eng_eager.events_dispatched
        assert eng_lazy.now == eng_eager.now
        assert eng_eager.raw_events_dispatched == \
            eng_eager.events_dispatched == 59
        assert eng_lazy.events_synthesized == 51
        assert eng_lazy.raw_events_dispatched == 8


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
