"""``doram explore``: budget enforcement, frontier recovery, reports.

The contract (DESIGN.md "Analytical fast-path"):

* the DES never runs more than ``budget_frac`` of the grid (anchors
  included) -- the whole point of the analytical triage;
* the reported frontier is exactly the Pareto front of the *measured*
  points (no analytically-extrapolated rows sneak in);
* when the ground truth is an affine transform of the model per family
  -- i.e. the model's trends are right and calibration can make it
  exact -- explore recovers the true full-grid frontier while
  simulating a fraction of it;
* selection is deterministic in the seed, failures are excluded from
  the frontier but reported, and the bench record satisfies
  :mod:`repro.analysis.trajectory`'s ``explore`` schema.
"""

import json

import pytest

from repro.analysis.explore import (
    bench_record,
    build_grid,
    config_for_point,
    deeply_dominated,
    explore,
    metrics_from_payload,
    pareto_indices,
    write_report,
)
from repro.analysis.model import DoramModel
from repro.analysis.sweep import ResultStore

LENGTH = 300

MODEL = DoramModel()


def _family_affine_truth(point):
    """Synthetic ground truth: per-family affine images of the model.

    Calibration can represent this exactly, so the predicted frontier
    converges to the true one -- the recovery tests' ideal condition.
    Coefficients differ per family to exercise the per-family fits.
    """
    config = config_for_point(point)
    pred = MODEL.predict(config)
    k = config.split_k
    lat = pred.ns_latency_us * (1.5 + 0.4 * k) + 0.01 * (k + 1)
    good = pred.goodput_rps * (0.9 - 0.1 * k) + 5e3 * (4 - k)
    return lat, good


def _measure_with(truth, failures=()):
    calls = []

    def _measure(points):
        calls.append(list(points))
        measured, failed = {}, {}
        for point in points:
            if point.label in failures:
                failed[point] = "synthetic failure"
            else:
                measured[point] = truth(point)
        return measured, failed

    _measure.calls = calls
    return _measure


# ---------------------------------------------------------------------------
# Pareto primitives
# ---------------------------------------------------------------------------


class TestPareto:
    def test_front_of_a_known_set(self):
        metrics = [(1.0, 10.0), (2.0, 20.0), (3.0, 15.0), (0.5, 5.0),
                   (2.5, 20.0)]
        # (3,15) dominated by (2,20); (2.5,20) dominated by (2,20).
        assert pareto_indices(metrics) == [0, 1, 3]

    def test_single_point_is_its_own_front(self):
        assert pareto_indices([(1.0, 1.0)]) == [0]

    def test_deep_domination_band(self):
        metrics = [(1.0, 100.0), (1.05, 99.0), (10.0, 10.0)]
        # Point 1 is within 8% of the frontier point in both metrics.
        assert not deeply_dominated(metrics, 1, band_frac=0.08)
        # Point 2 is beaten by far more than 8% in both.
        assert deeply_dominated(metrics, 2, band_frac=0.08)
        assert not deeply_dominated(metrics, 0, band_frac=0.08)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


class TestGrids:
    def test_full_grid_is_acceptance_sized(self):
        grid = build_grid("full", LENGTH)
        assert len(grid) >= 500
        assert len({point.key() for point in grid}) == len(grid)

    def test_smoke_grid_is_ci_sized(self):
        assert len(build_grid("smoke", LENGTH)) <= 20

    def test_fig9_grid_matches_scheme_set(self):
        schemes = {p.scheme for p in build_grid("fig9", LENGTH)}
        assert "baseline" in schemes
        assert "doram+1/4" in schemes

    def test_unknown_preset_fails_clearly(self):
        with pytest.raises(ValueError):
            build_grid("nope", LENGTH)

    def test_grid_points_build_valid_configs(self):
        for point in build_grid("full", LENGTH)[::97]:
            config = config_for_point(point)
            assert config.trace_length == LENGTH


# ---------------------------------------------------------------------------
# The explore loop on a stubbed simulator
# ---------------------------------------------------------------------------


class TestExploreLoop:
    def test_budget_is_never_exceeded(self):
        grid = build_grid("full", LENGTH)
        measure = _measure_with(_family_affine_truth)
        result = explore(grid, budget_frac=0.1, measure=measure, seed=7)
        budget = int(len(grid) * 0.1)
        assert result.simulated <= budget
        assert result.budget == budget
        assert sum(len(batch) for batch in measure.calls) \
            == result.simulated
        assert result.sim_fraction <= 0.1

    def test_affine_truth_recovers_the_true_frontier(self):
        grid = build_grid("full", LENGTH)
        truths = [_family_affine_truth(p) for p in grid]
        true_front = {
            grid[i].label for i in pareto_indices(truths)
        }
        result = explore(
            grid, budget_frac=0.2,
            measure=_measure_with(_family_affine_truth), seed=3,
        )
        found = {row["label"] for row in result.frontier}
        assert true_front <= found, sorted(true_front - found)
        # And it genuinely skipped most of the grid doing it.
        assert result.des_points_skipped_frac >= 0.8
        # Calibration is exact here, so residual error ~ 0.
        assert result.latency_error["max"] < 1e-9
        assert result.goodput_error["max"] < 1e-9

    def test_reported_frontier_is_pareto_of_measured(self):
        grid = build_grid("full", LENGTH)
        result = explore(
            grid, budget_frac=0.15,
            measure=_measure_with(_family_affine_truth), seed=11,
        )
        rows = [(r["latency_us"], r["goodput_rps"])
                for r in result.frontier]
        # No frontier row dominates another.
        for i, (lat_i, good_i) in enumerate(rows):
            for j, (lat_j, good_j) in enumerate(rows):
                if i == j:
                    continue
                assert not (lat_j <= lat_i and good_j >= good_i
                            and (lat_j < lat_i or good_j > good_i)), \
                    (rows[i], rows[j])
        # Sorted by latency for the report.
        assert rows == sorted(rows)

    def test_same_seed_same_selection(self):
        grid = build_grid("full", LENGTH)
        first = explore(grid, budget_frac=0.1,
                        measure=_measure_with(_family_affine_truth),
                        seed=5)
        second = explore(grid, budget_frac=0.1,
                         measure=_measure_with(_family_affine_truth),
                         seed=5)
        assert first.to_json_dict() == second.to_json_dict()

    def test_failed_points_are_reported_not_fronted(self):
        grid = build_grid("smoke", LENGTH)
        # Fail whichever anchor comes first deterministically.
        all_labels = sorted(p.label for p in grid)
        bad = {all_labels[0]}
        result = explore(
            grid, budget_frac=1.0,
            measure=_measure_with(_family_affine_truth, failures=bad),
            seed=1,
        )
        assert set(result.failed) == bad
        assert bad.isdisjoint({r["label"] for r in result.frontier})

    def test_empty_grid_refused(self):
        with pytest.raises(ValueError):
            explore([], measure=_measure_with(_family_affine_truth))

    def test_bad_budget_refused(self):
        grid = build_grid("smoke", LENGTH)
        with pytest.raises(ValueError):
            explore(grid, budget_frac=0.0,
                    measure=_measure_with(_family_affine_truth))


# ---------------------------------------------------------------------------
# Reports and bench records
# ---------------------------------------------------------------------------


class TestReports:
    def _result(self):
        grid = build_grid("smoke", LENGTH)
        return explore(grid, budget_frac=0.5,
                       measure=_measure_with(_family_affine_truth),
                       seed=2)

    def test_json_round_trip(self, tmp_path):
        result = self._result()
        out = tmp_path / "surface.json"
        write_report(result, out_json=str(out))
        doc = json.loads(out.read_text())
        assert doc["grid_points"] == result.grid_points
        assert doc["simulated"] == result.simulated
        assert doc["frontier"] == result.frontier
        assert "latency_error" in doc and "calibration" in doc

    def test_markdown_mentions_the_headline_numbers(self, tmp_path):
        result = self._result()
        out = tmp_path / "surface.md"
        write_report(result, out_md=str(out))
        text = out.read_text()
        assert "Pareto" in text
        assert f"**{result.grid_points}**" in text
        assert "DES skipped" in text

    def test_bench_record_satisfies_the_explore_schema(self, tmp_path):
        from repro.analysis import trajectory

        result = self._result()
        record = bench_record(result, "test", "smoke", LENGTH, 1.23)
        out = tmp_path / "BENCH_explore.json"
        appended = trajectory.append(record, str(out))
        assert appended["workload"] == "explore"
        assert trajectory.check(str(out)) == []

    def test_metrics_from_payload(self):
        payload = {
            "result": {
                "ns_read_latency": {"count": 4, "total": 64_000},
                "s_app": {"oram_accesses": 100},
                "end_time": 16_000_000,
            },
        }
        lat_us, goodput = metrics_from_payload(payload)
        assert lat_us == pytest.approx(1.0)       # 16k ticks = 1 us
        assert goodput == pytest.approx(1e5)      # 100 accesses / 1 ms
        empty_lat, empty_good = metrics_from_payload(
            {"result": {"ns_read_latency": {}, "end_time": 0}}
        )
        assert (empty_lat, empty_good) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Real-simulator integration (small grid, resumable store)
# ---------------------------------------------------------------------------


class TestRealSimulator:
    def test_smoke_grid_explores_and_resumes_from_store(self, tmp_path):
        grid = build_grid("smoke", 150)
        store = ResultStore(str(tmp_path / "store"))
        result = explore(grid, store=store, workers=1,
                         budget_frac=0.5, seed=1)
        assert 0 < result.simulated <= result.budget
        assert not result.failed
        assert result.frontier
        assert len(store) == result.simulated
        # Re-running over the same store re-simulates nothing and
        # reproduces the same surface.
        again = explore(grid, store=store, workers=1,
                        budget_frac=0.5, seed=1)
        assert again.to_json_dict() == result.to_json_dict()

    def test_queue_root_is_honoured_at_one_worker(self, tmp_path):
        """--queue at --workers 1 drains through the queue (so --join
        workers can help) instead of silently running serially."""
        store = ResultStore(str(tmp_path / "store"))
        result = explore(build_grid("smoke", 150), store=store, workers=1,
                         queue_root=str(tmp_path / "q"), budget_frac=0.25,
                         max_rounds=0, seed=1)
        assert (tmp_path / "q" / "batch-000" / "manifest.json").exists()
        assert len(store) == result.simulated > 0

    def test_queue_mode_multi_round_matches_serial(self, tmp_path):
        """Each explore round submits a *different* point set, so the
        queue path must declare a fresh batch directory per round
        instead of tripping the manifest-mismatch guard."""
        grid = build_grid("smoke", 150)
        serial = explore(
            grid, store=ResultStore(str(tmp_path / "serial")),
            workers=1, budget_frac=0.5, seed=1,
        )
        assert serial.rounds > 1  # the regression needs >= 2 batches
        queue_store = ResultStore(str(tmp_path / "store"))
        queued = explore(
            grid, store=queue_store, workers=2,
            queue_root=str(tmp_path / "queue"),
            budget_frac=0.5, seed=1,
        )
        doc = queued.to_json_dict()
        ref = serial.to_json_dict()
        doc.pop("store_root"), ref.pop("store_root")
        assert doc == ref
