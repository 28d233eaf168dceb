"""Schema validation on the benchmark trajectories.

``tools/bench_trajectory.py`` guards the two append-only measurement
files (``BENCH_sweep.json``, ``BENCH_sim.json``): malformed rows,
out-of-order timestamps, and duplicate label+workload+config identities
are refused before they land, so sibling rows always compare
well-formed measurements.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "tools"))
import bench_trajectory  # noqa: E402  (path shim above)


def _fig9_row(**overrides):
    row = {
        "label": "test",
        "workload": "fig9_segment",
        "config": "lazy",
        "events": 1000,
        "events_per_s": 500,
        "events_dispatched": 900,
        "wall_s": 2.0,
        "schemes": ["baseline"],
        "per_scheme_events": {"baseline": 1000},
        "trace_length": 100,
    }
    row.update(overrides)
    return row


class TestValidate:
    def test_complete_fig9_row_passes(self):
        bench_trajectory.validate(_fig9_row(), [])

    def test_missing_workload_key_refused(self):
        row = _fig9_row()
        del row["per_scheme_events"]
        with pytest.raises(ValueError, match="per_scheme_events"):
            bench_trajectory.validate(row, [])

    def test_missing_base_key_refused(self):
        row = _fig9_row()
        del row["wall_s"]
        with pytest.raises(ValueError, match="wall_s"):
            bench_trajectory.validate(row, [])

    def test_none_value_counts_as_missing(self):
        with pytest.raises(ValueError, match="config"):
            bench_trajectory.validate(_fig9_row(config=None), [])

    def test_backend_columns_are_not_required(self):
        # One simulator path: rows no longer name a DRAM or link backend.
        row = _fig9_row()
        assert "dram" not in row and "link" not in row
        bench_trajectory.validate(row, [])

    def test_unknown_workload_needs_only_base_keys(self):
        bench_trajectory.validate(
            {"label": "test", "workload": "exotic", "wall_s": 1.0}, []
        )

    def test_sweep_row_without_workload_needs_only_base_keys(self):
        bench_trajectory.validate(
            {"label": "ci", "wall_s": 1.9, "points": 13, "workers": 2}, []
        )

    def test_monotonic_timestamps_enforced(self):
        older = _fig9_row(timestamp="2026-08-01T00:00:00Z")
        newer = _fig9_row(label="other",
                          timestamp="2026-08-08T00:00:00Z")
        bench_trajectory.validate(older, [])
        with pytest.raises(ValueError, match="monotonic"):
            bench_trajectory.validate(older, [newer])

    def test_duplicate_identity_refused(self):
        row = _fig9_row()
        with pytest.raises(ValueError, match="duplicate"):
            bench_trajectory.validate(_fig9_row(), [row])

    def test_sibling_rows_are_not_duplicates(self):
        # The same label re-measured in another configuration is the
        # sibling-pair convention, not a duplicate.  Committed rows from
        # the removed backends keep their ``dram``/``link`` columns in
        # the identity, so they stay distinct from each other.
        lazy = _fig9_row()
        bench_trajectory.validate(_fig9_row(config="eager"), [lazy])
        bench_trajectory.validate(_fig9_row(label="other"), [lazy])
        legacy = _fig9_row(dram="legacy", link="legacy")
        bench_trajectory.validate(
            _fig9_row(dram="kernel", link="legacy"), [legacy]
        )

    def test_historical_rows_are_not_judged(self):
        # Rows predating a schema key lack it entirely; they stay in the
        # file and only the *new* record must satisfy the schema.
        old = _fig9_row(label="old")
        del old["per_scheme_events"]
        bench_trajectory.validate(_fig9_row(), [old])


def _explore_row(**overrides):
    row = {
        "label": "test",
        "workload": "explore",
        "config": "smoke",
        "trace_length": 150,
        "wall_s": 3.2,
        "grid_points": 16,
        "simulated": 8,
        "sim_fraction": 0.5,
        "des_points_skipped_frac": 0.5,
        "budget_frac": 0.5,
        "rounds": 2,
        "frontier_size": 3,
        "latency_err_mean": 0.02,
        "latency_err_p95": 0.05,
        "goodput_err_mean": 0.1,
        "goodput_err_p95": 0.2,
    }
    row.update(overrides)
    return row


class TestExploreSchema:
    def test_complete_explore_row_passes(self):
        bench_trajectory.validate(_explore_row(), [])

    def test_missing_error_column_refused(self):
        row = _explore_row()
        del row["latency_err_p95"]
        with pytest.raises(ValueError, match="latency_err_p95"):
            bench_trajectory.validate(row, [])

    def test_missing_skip_fraction_refused(self):
        with pytest.raises(ValueError, match="des_points_skipped_frac"):
            bench_trajectory.validate(
                _explore_row(des_points_skipped_frac=None), []
            )

    def test_same_label_different_grid_is_a_sibling(self):
        smoke = _explore_row()
        bench_trajectory.validate(_explore_row(config="full"), [smoke])
        with pytest.raises(ValueError, match="duplicate"):
            bench_trajectory.validate(_explore_row(), [smoke])


class TestCheck:
    def test_clean_trajectory_passes(self, tmp_path):
        path = str(tmp_path / "BENCH_explore.json")
        bench_trajectory.append(_explore_row(), path=path)
        bench_trajectory.append(_explore_row(config="full"), path=path)
        assert bench_trajectory.check(path) == []
        assert bench_trajectory.main(["--check", path]) == 0

    def test_hand_edited_duplicate_is_caught(self, tmp_path):
        path = tmp_path / "BENCH_explore.json"
        row = bench_trajectory.append(_explore_row(), path=str(path))
        rows = json.loads(path.read_text())
        rows.append(dict(row))  # merge-mangled duplicate identity
        path.write_text(json.dumps(rows))
        problems = bench_trajectory.check(str(path))
        assert len(problems) == 1
        assert "duplicate" in problems[0]
        assert bench_trajectory.main(["--check", str(path)]) == 1

    def test_missing_key_is_caught_with_its_index(self, tmp_path):
        path = tmp_path / "bad.json"
        row = _explore_row()
        del row["rounds"]
        path.write_text(json.dumps([row]))
        problems = bench_trajectory.check(str(path))
        assert problems and "[0]" in problems[0]
        assert "rounds" in problems[0]

    def test_committed_trajectories_replay_clean(self):
        # BENCH_sim.json's early rows predate several workload keys;
        # the grandfathering rule must keep the committed files green.
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for name in ("BENCH_sim.json", "BENCH_sweep.json",
                     "BENCH_explore.json"):
            assert bench_trajectory.check(os.path.join(root, name)) == []

    def test_schema_regression_after_ratification_is_caught(
        self, tmp_path
    ):
        # Once a complete row exists, a later incomplete row of the
        # same workload is a hand-edit, not pre-schema history.
        complete = _explore_row()
        regressed = _explore_row(config="full")
        del regressed["rounds"]
        path = tmp_path / "BENCH_explore.json"
        path.write_text(json.dumps([complete, regressed]))
        problems = bench_trajectory.check(str(path))
        assert len(problems) == 1
        assert "[1]" in problems[0] and "rounds" in problems[0]

    def test_pre_schema_history_is_grandfathered(self, tmp_path):
        # The incomplete row predates the complete one, so only the
        # newest row is held to the full schema.
        old = _explore_row()
        del old["rounds"]
        path = tmp_path / "BENCH_explore.json"
        path.write_text(json.dumps([old, _explore_row(config="full")]))
        assert bench_trajectory.check(str(path)) == []

    def test_unreadable_and_non_array_files_are_reported(self, tmp_path):
        assert bench_trajectory.check(str(tmp_path / "nope.json"))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert "not valid JSON" in bench_trajectory.check(str(garbled))[0]
        scalar = tmp_path / "scalar.json"
        scalar.write_text('{"a": 1}')
        assert "JSON array" in bench_trajectory.check(str(scalar))[0]


class TestAppend:
    def test_append_validates_and_writes(self, tmp_path):
        path = str(tmp_path / "BENCH_sim.json")
        bench_trajectory.append(_fig9_row(), path=path)
        with pytest.raises(ValueError, match="duplicate"):
            bench_trajectory.append(_fig9_row(), path=path)
        with open(path) as fp:
            rows = json.load(fp)
        assert len(rows) == 1
        assert rows[0]["label"] == "test"
        assert "timestamp" in rows[0]

    def test_committed_trajectories_validate_one_by_one(self):
        # Replay both committed files through the validator: every row
        # must have been appendable at the time it was appended.
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for name in ("BENCH_sim.json", "BENCH_sweep.json"):
            rows = bench_trajectory.load(os.path.join(root, name))
            for i, row in enumerate(rows):
                required = [
                    key for key in bench_trajectory.BASE_KEYS
                    if key not in row
                ]
                assert not required, f"{name}[{i}] missing {required}"
                assert not any(
                    bench_trajectory.identity(row)
                    == bench_trajectory.identity(prior)
                    for prior in rows[:i]
                    if row.get("workload") is not None
                ), f"{name}[{i}] duplicates an earlier identity"
