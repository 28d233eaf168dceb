"""Chaos-campaign generator: determinism, validation, sweep protocol.

The campaign contract (ISSUE 10): a ``CampaignSpec`` is a *pure
function* from (spec, seed) to a FaultPlan stream -- re-materializing
any point yields byte-identical plans, every point owns a distinct
derived seed, and a campaign cell with no fault rules produces exactly
the bare scenario payload.  Validation is front-loaded: a spec that
could materialize an invalid plan anywhere in its grid is rejected at
load time with a :class:`CampaignError` (the CLI's exit-2 boundary).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.faults.campaign import (
    CampaignError,
    CampaignSpec,
    FaultPoint,
    Intensity,
    bench_records,
    chaos_rows,
    render_markdown,
)
from repro.scenarios.arrivals import derive_seed

#: Small-but-real scenario: every spec below resolves through
#: ``apply_overrides`` against a default ScenarioConfig at load time.
SCENARIO = (("horizon_ns", 8000.0), ("num_tenants", 2),
            ("oram.leaf_level", 12), ("queue_cap", 256))


def _spec(**kw):
    kw.setdefault("name", "t")
    kw.setdefault("points", 3)
    kw.setdefault("scenario", SCENARIO)
    kw.setdefault("trace_length", 60)
    kw.setdefault("functional_ops", 30)
    return CampaignSpec(**kw)


def _plan_stream(spec):
    """The campaign's full plan stream as canonical bytes."""
    return json.dumps(
        [spec.plan_for(i).to_json_dict() for i in range(spec.points)],
        sort_keys=True,
    ).encode()


_INTENSITY = st.one_of(
    st.floats(0.0, 0.2).map(Intensity),
    st.tuples(
        st.floats(0.0, 0.1), st.floats(0.1, 0.2),
        st.sampled_from(("ramp", "uniform")),
    ).map(lambda t: Intensity(lo=t[0], hi=t[1], mode=t[2])),
)

_SPECS = st.builds(
    lambda points, seed, link_rate, dram_rate: _spec(
        points=points, seed=seed,
        link=({"kind": "corrupt", "rate": link_rate},),
        dram=({"rate": dram_rate},),
    ),
    points=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    link_rate=_INTENSITY,
    dram_rate=_INTENSITY,
)


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(spec=_SPECS)
    def test_same_spec_same_seed_byte_identical_stream(self, spec):
        clone = CampaignSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert clone == spec
        assert _plan_stream(clone) == _plan_stream(spec)

    @settings(max_examples=25, deadline=None)
    @given(spec=_SPECS)
    def test_points_own_disjoint_derived_seeds(self, spec):
        seeds = [spec.plan_for(i).seed for i in range(spec.points)]
        assert len(set(seeds)) == spec.points
        assert seeds == [derive_seed(spec.seed, i)
                         for i in range(spec.points)]

    def test_adding_points_never_moves_earlier_plans(self):
        base = _spec(points=2, dram=({"rate": Intensity(0.01)},))
        grown = dataclasses.replace(base, points=5)
        for i in range(base.points):
            assert grown.plan_for(i) == base.plan_for(i)

    def test_ramp_hits_both_endpoints(self):
        spec = _spec(
            points=3,
            link=({"rate": Intensity(0.0, 0.08, "ramp")},),
        )
        rates = [spec.plan_for(i).link[0].rate for i in range(3)]
        assert rates == [0.0, 0.04, 0.08]

    def test_uniform_draw_is_point_local(self):
        spec = _spec(
            points=4,
            dram=({"rate": Intensity(0.001, 0.02, "uniform")},),
        )
        # The draw for point i depends only on (seed, site, i): the
        # same index re-queried from a fresh spec object matches.
        again = _spec(
            points=4,
            dram=({"rate": Intensity(0.001, 0.02, "uniform")},),
        )
        assert [spec.plan_for(i).dram[0].rate for i in range(4)] \
            == [again.plan_for(i).dram[0].rate for i in range(4)]


class TestValidation:
    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign"):
            CampaignSpec.from_json_dict(
                {"name": "x", "points": 1, "bogus": 1}
            )

    def test_points_must_be_positive(self):
        with pytest.raises(CampaignError, match="points >= 1"):
            _spec(points=0)

    def test_intensity_lo_above_hi_rejected(self):
        with pytest.raises(CampaignError, match="lo"):
            Intensity(lo=0.5, hi=0.1)

    def test_intensity_unknown_mode_rejected(self):
        with pytest.raises(CampaignError, match="mode"):
            Intensity(lo=0.1, mode="gaussian")

    def test_bad_fault_rate_fails_at_load_not_drain(self):
        # rate hi=1.5 is an invalid LinkFault: the rule probe at
        # construction time must catch it, before any grid exists.
        from repro.faults.plan import FaultPlanError

        with pytest.raises(FaultPlanError):
            _spec(link=({"rate": Intensity(0.0, 1.5, "ramp")},))

    def test_bad_scenario_override_rejected(self):
        with pytest.raises(CampaignError, match="overrides"):
            _spec(scenario=(("no_such_field", 1),))

    def test_two_crash_specs_rejected(self):
        crash = {"kind": "crash", "start_ns": Intensity(5000.0)}
        with pytest.raises(CampaignError, match="crash"):
            _spec(delegator=(crash, crash))

    def test_a_fixed_field_cannot_vary(self):
        with pytest.raises(CampaignError, match="cannot vary"):
            _spec(link=({"kind": "delay",
                         "delay_ns": Intensity(10.0, 50.0, "ramp")},))

    def test_rules_take_plan_rule_fields_and_campaign_defaults(self):
        spec = _spec(link=({"kind": "drop", "tag": "raw",
                            "packets": [3]},),
                     dram=({"reads": [1, 2]},))
        plan = spec.plan_for(0)
        assert plan.link[0].link == "bob*.down"
        assert plan.link[0].packets == (3,)
        assert plan.dram[0].channel == "ch*"
        assert plan.dram[0].reads == (1, 2)
        assert CampaignSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        ) == spec

    def test_overlapping_stalls_rejected_per_point(self):
        # Both stalls materialize to the same window at every point:
        # plan validation fires inside spec construction.
        stall = {"kind": "stall", "start_ns": Intensity(1000.0),
                 "duration_ns": Intensity(500.0)}
        with pytest.raises(CampaignError, match="point 0"):
            _spec(delegator=(stall, stall))


class TestSweepProtocol:
    def test_manifest_round_trip(self):
        spec = _spec(dram=({"rate": Intensity(0.005)},),
                     workloads=((("arrival.rate_rps", 150_000.0),), ()))
        for point in spec.grid():
            doc = json.loads(json.dumps(point.to_manifest()))
            clone = FaultPoint.from_manifest(doc)
            assert clone == point
            assert clone.key() == point.key()
            assert clone.key(True) == point.key(True)

    def test_key_distinguishes_every_axis(self):
        spec = _spec(points=2, schemes=("doram", "baseline"),
                     workloads=((("arrival.rate_rps", 150_000.0),), ()),
                     dram=({"rate": Intensity(0.0, 0.01, "ramp")},))
        keys = {p.key() for p in spec.grid()}
        assert len(keys) == 2 * 2 * 2
        point = spec.grid()[0]
        assert point.key(True) != point.key(False)

    def test_grid_is_index_major_and_complete(self):
        spec = _spec(points=2, schemes=("doram",),
                     workloads=((("arrival.rate_rps", 150_000.0),), ()))
        cells = [(p.index, p.scheme, p.workload_id)
                 for p in spec.grid()]
        assert cells == [(0, "doram", 0), (0, "doram", 1),
                         (1, "doram", 0), (1, "doram", 1)]


class TestArmedEmptyCell:
    def test_empty_campaign_cell_matches_bare_scenario(self):
        from repro.scenarios.service import run_scenario

        spec = _spec(points=1)
        payload = spec.grid()[0].execute()
        bare = run_scenario(spec.scenario_config(()))
        assert payload["invariants"]["ok"]
        assert payload["fault_summary"] == {}
        assert payload["report_digest"] == bare.report_digest()

    def test_execute_is_deterministic(self):
        spec = _spec(points=1,
                     dram=({"rate": Intensity(0.005)},))
        point = spec.grid()[0]
        first = json.dumps(point.execute(), sort_keys=True)
        second = json.dumps(point.execute(), sort_keys=True)
        assert first == second


class TestReporting:
    def _payloads(self):
        spec = _spec(points=1)
        point = spec.grid()[0]
        return {point: point.execute()}

    def test_rows_and_markdown_and_bench(self):
        rows = chaos_rows(self._payloads())
        assert len(rows) == 1
        assert rows[0]["invariants_ok"] is True
        table = render_markdown(rows)
        assert "| point | scheme |" in table
        assert "| OK |" in table
        records = bench_records(rows, "test", 1.0)
        assert records[0]["workload"] == "chaos_point"
        assert records[0]["config"] == "t#0:doram:w0"
        # The -1.0 sentinel only appears when no recovery was measured.
        assert records[0]["recovery_p99_ns"] != 0.0


class TestCli:
    SPEC = "examples/campaigns/ci-smoke.json"

    def test_dry_run_lists_every_point(self, capsys):
        assert main(["chaos", "--campaign", self.SPEC,
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'ci-smoke'" in out
        assert out.count("point ") == 3

    def test_missing_spec_is_exit_2(self, capsys):
        assert main(["chaos", "--campaign", "/no/such.json"]) == 2
        assert "doram: error" in capsys.readouterr().err

    def test_malformed_spec_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "points": 1,
                                   "link": [{"kind": "meteor"}]}))
        assert main(["chaos", "--campaign", str(bad)]) == 2
        assert "doram: error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("schemes", ["doram", "nosuchscheme"]),
        ("benchmark", "nosuchbench"),
    ])
    def test_unknown_scheme_or_benchmark_is_exit_2(
        self, field, value, tmp_path, capsys
    ):
        """A name no cell can run is rejected at load: the dry run and
        a drain both exit 2 with one line, before any cell simulates."""
        with open(self.SPEC) as fp:
            doc = json.load(fp)
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        store = tmp_path / "store"
        for extra in (["--dry-run"], ["--workers", "1", "--store",
                                      str(store)]):
            assert main(["chaos", "--campaign", str(bad)] + extra) == 2
            err = capsys.readouterr().err
            assert "nosuch" in err and err.count("\n") == 1
        assert not store.exists()

    def test_queue_flags_mutually_exclusive(self, capsys):
        assert main(["chaos", "--campaign", self.SPEC,
                     "--queue", "a", "--join", "b"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_report_without_store_is_exit_2(self, capsys):
        assert main(["chaos", "report", "--campaign", self.SPEC]) == 2
        assert "store" in capsys.readouterr().err
