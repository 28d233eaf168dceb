"""ScenarioPoint through the shared sweep runner: store, resume, rows."""

import pytest

from repro.analysis.sweep import ResultStore, execute_point, run_sweep
from repro.analysis.workqueue import WorkQueue
from repro.scenarios import (
    ScenarioConfig,
    ScenarioPoint,
    scenario_grid,
    slo_rows,
)

#: Every point in this file runs a tiny tree over a short horizon.
FAST = {
    "oram.leaf_level": 12,
    "horizon_ns": 10_000.0,
    "seed": 9,
}


def _grid():
    return scenario_grid([1, 2], [200_000.0], base_overrides=FAST)


class TestScenarioPoint:
    def test_grid_shape_and_labels(self):
        points = scenario_grid([1, 2, 4], [1e5, 2e5], base_overrides=FAST)
        assert len(points) == 6
        assert len({p.key() for p in points}) == 6
        for p in points:
            assert p.label.startswith("scenario[")
            assert "num_tenants=" in p.label

    def test_overrides_sorted_and_hashable(self):
        a = ScenarioPoint(overrides=(("num_tenants", 2), ("seed", 9)))
        b = ScenarioPoint(overrides=(("seed", 9), ("num_tenants", 2)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_key_varies_with_digest_flag(self):
        point = _grid()[0]
        assert point.key(with_digest=False) != point.key(with_digest=True)

    def test_resolved_config(self):
        point = _grid()[0]
        config = point.resolved_config()
        assert isinstance(config, ScenarioConfig)
        assert config.num_tenants == 1
        assert config.oram.leaf_level == 12
        assert config.arrival.rate_rps == 200_000.0

    def test_unknown_override_names_the_known_fields(self):
        # The scenario layer shares make_config's override grammar: a
        # bad key is a ValueError naming what exists, not a TypeError.
        from repro.scenarios.config import apply_overrides

        with pytest.raises(ValueError, match="rate_rps"):
            apply_overrides(ScenarioConfig(), {"arrival.nope": 1.0})
        with pytest.raises(ValueError, match="arrival"):
            apply_overrides(ScenarioConfig(), {"nope.rate_rps": 1.0})

    def test_execute_payload_shape(self):
        payload = _grid()[0].execute(with_digest=True)
        assert payload["point"]["kind"] == "scenario"
        assert payload["report_digest"]
        assert payload["trace_digest"]
        assert payload["result"]["version"] >= 1

    def test_manifest_round_trip_keeps_the_key(self, tmp_path):
        point = ScenarioPoint(overrides=tuple(FAST.items()) + (
            ("num_tenants", 2), ("arrival.rate_rps", 2e5),
        ))
        assert ScenarioPoint.from_manifest(point.to_manifest()) == point
        WorkQueue.create(str(tmp_path / "q"), [point])
        joined = WorkQueue.join(str(tmp_path / "q")).points
        assert joined == [point]
        assert joined[0].key() == point.key()

    def test_execute_point_dispatches_to_scenario(self):
        # The generalized runner entry: any point with .execute goes
        # through it instead of the RunPoint simulator.
        point = _grid()[0]
        payload = execute_point(point, timeout_s=300.0)
        assert payload["point"]["kind"] == "scenario"
        assert payload == point.execute(False)


class TestSloSweep:
    def test_sweep_then_resume_hits_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = run_sweep(_grid(), workers=1, store=store,
                              timeout_s=300.0)
        assert first.simulated == 2 and first.store_hits == 0
        assert not first.failed
        again = run_sweep(_grid(), workers=1, store=store,
                              timeout_s=300.0)
        assert again.simulated == 0 and again.store_hits == 2
        assert {p.key() for p in first.payloads} == \
            {p.key() for p in again.payloads}

    def test_slo_rows_complete_and_sorted(self, tmp_path):
        result = run_sweep(
            scenario_grid([2, 1], [3e5, 2e5], base_overrides=FAST),
            workers=1, store=ResultStore(str(tmp_path)), timeout_s=300.0,
        )
        rows = slo_rows(result)
        assert [(r["tenants"], r["rate_rps"]) for r in rows] == \
            [(1, 2e5), (1, 3e5), (2, 2e5), (2, 3e5)]
        for row in rows:
            assert row["completed"] > 0
            assert row["goodput_rps"] > 0
            assert row["worst_p50_ns"] <= row["worst_p99_ns"] \
                <= row["worst_p999_ns"]
            assert row["report_digest"]


@pytest.mark.slow
class TestSloSweepParallel:
    def test_two_workers_match_serial(self, tmp_path):
        serial = run_sweep(_grid(), workers=1, timeout_s=300.0)
        parallel = run_sweep(_grid(), workers=2, timeout_s=300.0)
        serial_digests = {p.key(): pay["report_digest"]
                          for p, pay in serial.payloads.items()}
        parallel_digests = {p.key(): pay["report_digest"]
                            for p, pay in parallel.payloads.items()}
        assert serial_digests == parallel_digests
