"""The multi-tenant service runner: SLO report, determinism, governance.

The acceptance bar for the scenario layer: >= 8 concurrent tenants under
open-loop Poisson arrivals, per-tenant p50/p99/p999 + goodput in the
report, and byte-identical reports and trace digests for equal seeds
across runs and periodic modes.  The short-horizon variants here stay
in tier-1; an extended eager-vs-lazy pass runs under ``-m slow``.
"""

import pytest

from repro.obs.export import trace_digest
from repro.obs.tracer import Tracer
from repro.oram.config import OramConfig
from repro.scenarios import (
    ArrivalSpec,
    ScenarioConfig,
    ScenarioResult,
    format_report,
    run_scenario,
)
from repro.sim.engine import ns

ORAM = OramConfig(leaf_level=12)


def _config(**kw):
    kw.setdefault("num_tenants", 8)
    kw.setdefault("horizon_ns", 20_000.0)
    kw.setdefault("oram", ORAM)
    kw.setdefault("seed", 3)
    return ScenarioConfig(**kw)


@pytest.fixture(scope="module")
def eight():
    return run_scenario(_config())


class TestServeSmoke:
    def test_every_tenant_served(self, eight):
        assert len(eight.tenants) == 8
        for row in eight.tenants.values():
            assert row["completed"] > 0
            assert row["goodput_rps"] > 0

    def test_slo_percentiles_reported(self, eight):
        for row in eight.tenants.values():
            lat = row["latency_ns"]
            assert set(lat) >= {"p50", "p99", "p999", "mean", "max", "count"}
            assert 0 < lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"]

    def test_drain_completes_all_admitted(self, eight):
        for row in eight.tenants.values():
            assert row["completed"] == row["admitted"]
            assert (row["offered"] == row["admitted"]
                    + row["rejected_overflow"] + row["rejected_shed"]
                    + row["rejected_fault"])

    def test_tenants_spread_over_secure_subchannels(self, eight):
        # All 8 trees live on channel 0's four sub-channels; every
        # sub-channel must have seen secure traffic.
        secure = [row for name, row in eight.channels.items()
                  if name.startswith("ch0.")]
        assert len(secure) == 4
        assert all(row["secure_reads"] > 0 for row in secure)

    def test_oram_emission_pacing(self, eight):
        # Fixed-rate frontends emit dummies whenever queues run dry; an
        # open-loop tenant at this load must see both kinds.
        for row in eight.tenants.values():
            assert row["oram_emissions"]["real"] > 0
            assert row["oram_emissions"]["dummy"] > 0

    def test_format_report_renders(self, eight):
        text = format_report(eight)
        assert "aggregate:" in text
        assert "p999" in text
        assert "report digest" in text


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        first = run_scenario(_config())
        second = run_scenario(_config())
        assert first.to_json_dict() == second.to_json_dict()
        assert first.report_digest() == second.report_digest()

    def test_different_seed_differs(self, eight):
        other = run_scenario(_config(seed=4))
        assert other.report_digest() != eight.report_digest()

    def test_json_round_trip(self, eight):
        state = eight.to_json_dict()
        back = ScenarioResult.from_json_dict(state)
        assert back.to_json_dict() == state
        assert back.report_digest() == eight.report_digest()


@pytest.mark.slow
class TestDeterminismExtended:
    """The acceptance-criteria run at full depth: 8 tenants, longer
    horizon, report + trace digests across periodic modes."""

    def _run(self, periodic):
        tracer = Tracer()
        result = run_scenario(
            _config(horizon_ns=100_000.0, write_fraction=0.2,
                    slo_target_ns=1_500.0), tracer=tracer,
            periodic=periodic,
        )
        return result.report_digest(), trace_digest(tracer.events)

    def test_eight_tenants_eager_lazy_byte_identical(self):
        assert self._run("lazy") == self._run("eager")


class TestGovernor:
    @pytest.fixture(scope="class")
    def governed(self):
        # An absurdly tight SLO: every window ratio lands deep in the
        # "small" category, so shedding must engage.
        return run_scenario(_config(
            num_tenants=4, slo_target_ns=1.0, control_interval_ns=2_000.0,
        ))

    def test_decisions_logged(self, governed):
        decisions = governed.governor["decisions"]
        assert governed.governor["enabled"]
        assert len(decisions) >= 5
        for row in decisions:
            assert set(row) == {"ts", "channel", "ratio", "category",
                                "admitting"}

    def test_shedding_engages_but_respects_floor(self, governed):
        assert governed.governor["sheds"] > 0
        shed = sum(row["rejected_shed"]
                   for row in governed.tenants.values())
        assert shed > 0
        for row in governed.governor["decisions"]:
            assert row["admitting"] >= 1  # min_admitting floor

    def test_low_tenant_ids_keep_admitting(self, governed):
        # Shedding trims from the highest id down; tenant 0 never sheds.
        assert governed.tenants["0"]["rejected_shed"] == 0

    def test_loose_slo_never_sheds(self):
        relaxed = run_scenario(_config(
            num_tenants=4, slo_target_ns=1e9, control_interval_ns=2_000.0,
        ))
        assert relaxed.governor["sheds"] == 0
        assert all(row["rejected_shed"] == 0
                   for row in relaxed.tenants.values())


class TestRunModes:
    def test_no_drain_stops_at_horizon(self):
        result = run_scenario(_config(num_tenants=2, drain=False))
        assert result.end_time == ns(20_000.0)

    def test_drain_runs_past_horizon(self, eight):
        assert eight.end_time >= ns(20_000.0)

    def test_snapshots_sampled(self):
        result = run_scenario(_config(
            num_tenants=2, snapshot_interval_ns=2_000.0,
        ))
        assert len(result.snapshots) >= 10
        row = result.snapshots[0]
        assert "tenant0" in row and "sd0" in row
        assert set(row["tenant0"]) == {"queued", "backlog", "outstanding"}

    def test_two_secure_channels(self):
        result = run_scenario(_config(
            num_tenants=4, secure_channels=(0, 2),
        ))
        placements = {row["secure_channel"]
                      for row in result.tenants.values()}
        assert placements == {0, 2}
        for row in result.tenants.values():
            assert row["completed"] == row["admitted"]

    def test_queue_overflow_counted(self):
        # queue_cap=1 at a rate far past the fixed-rate frontends'
        # drain capacity: overflow must reject, not deadlock.
        result = run_scenario(_config(
            num_tenants=2, queue_cap=1,
            arrival=ArrivalSpec(rate_rps=5_000_000.0),
        ))
        assert sum(row["rejected_overflow"]
                   for row in result.tenants.values()) > 0
        for row in result.tenants.values():
            assert row["completed"] == row["admitted"]

    def test_writes_complete_at_accept(self):
        result = run_scenario(_config(num_tenants=2, write_fraction=1.0))
        for row in result.tenants.values():
            assert row["writes"] == row["completed"] > 0
            # Store sojourn = queueing delay only; far below read RTT.
            assert row["latency_ns"]["p50"] < 500.0
