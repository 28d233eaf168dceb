"""Schema validation on the benchmark trajectories.

:mod:`repro.analysis.trajectory` guards the append-only measurement
file ``BENCH_chaos.json`` and replays the frozen ``BENCH_sim.json``,
``BENCH_sweep.json`` and ``BENCH_explore.json``: malformed
rows, out-of-order timestamps, and duplicate label+workload+config
identities are refused before they land, so sibling rows always compare
well-formed measurements.
"""

import json
import os

import pytest

from repro.analysis import trajectory


#: A second campaign cell: the same label in another configuration.
OTHER_CELL = "ci-smoke#1:doram:w300000"


def _chaos_row(**overrides):
    row = {
        "label": "test",
        "workload": "chaos_point",
        "config": "ci-smoke#0:doram:w300000",
        "campaign": "ci-smoke",
        "wall_s": 4.0,
        "availability": 1.0,
        "goodput_rps": 2.0e5,
        "slo_goodput_rps": 1.9e5,
        "recovery_p99_ns": -1.0,
        "invariants_ok": True,
    }
    row.update(overrides)
    return row


class TestValidate:
    def test_missing_workload_key_refused(self):
        trajectory.validate(_chaos_row(), [])
        row = _chaos_row()
        del row["availability"]
        with pytest.raises(ValueError, match="availability"):
            trajectory.validate(row, [])

    def test_missing_base_key_refused(self):
        row = _chaos_row()
        del row["wall_s"]
        with pytest.raises(ValueError, match="wall_s"):
            trajectory.validate(row, [])

    def test_none_value_counts_as_missing(self):
        with pytest.raises(ValueError, match="config"):
            trajectory.validate(_chaos_row(config=None), [])

    def test_backend_columns_are_not_required(self):
        # One simulator path: rows no longer name a DRAM or link backend.
        row = _chaos_row()
        assert "dram" not in row and "link" not in row
        trajectory.validate(row, [])

    def test_unknown_workload_needs_only_base_keys(self):
        trajectory.validate(
            {"label": "test", "workload": "exotic", "wall_s": 1.0}, []
        )

    def test_sweep_row_without_workload_needs_only_base_keys(self):
        trajectory.validate(
            {"label": "ci", "wall_s": 1.9, "points": 13, "workers": 2}, []
        )

    def test_monotonic_timestamps_enforced(self):
        older = _chaos_row(timestamp="2026-08-01T00:00:00Z")
        newer = _chaos_row(label="other",
                           timestamp="2026-08-08T00:00:00Z")
        trajectory.validate(older, [])
        with pytest.raises(ValueError, match="monotonic"):
            trajectory.validate(older, [newer])

    def test_duplicate_identity_refused(self):
        row = _chaos_row()
        with pytest.raises(ValueError, match="duplicate"):
            trajectory.validate(_chaos_row(), [row])

    def test_sibling_rows_are_not_duplicates(self):
        # The same label re-measured in another configuration is the
        # sibling-pair convention, not a duplicate.  Committed rows from
        # the removed backends keep their ``dram``/``link`` columns in
        # the identity, so they stay distinct from each other.
        cell = _chaos_row()
        trajectory.validate(_chaos_row(config=OTHER_CELL), [cell])
        trajectory.validate(_chaos_row(label="other"), [cell])
        legacy = _chaos_row(dram="legacy", link="legacy")
        trajectory.validate(
            _chaos_row(dram="kernel", link="legacy"), [legacy]
        )

    def test_historical_rows_are_not_judged(self):
        # Rows predating a schema key lack it entirely; they stay in the
        # file and only the *new* record must satisfy the schema.
        old = _chaos_row(label="old")
        del old["availability"]
        trajectory.validate(_chaos_row(), [old])


class TestCheck:
    def test_clean_trajectory_passes(self, tmp_path):
        path = str(tmp_path / "BENCH_chaos.json")
        trajectory.append(_chaos_row(), path)
        trajectory.append(_chaos_row(config=OTHER_CELL), path)
        assert trajectory.check(path) == []
        assert trajectory.main(["--check", path]) == 0

    def test_hand_edited_duplicate_is_caught(self, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        row = trajectory.append(_chaos_row(), str(path))
        rows = json.loads(path.read_text())
        rows.append(dict(row))  # merge-mangled duplicate identity
        path.write_text(json.dumps(rows))
        problems = trajectory.check(str(path))
        assert len(problems) == 1
        assert "duplicate" in problems[0]
        assert trajectory.main(["--check", str(path)]) == 1

    def test_missing_key_is_caught_with_its_index(self, tmp_path):
        path = tmp_path / "bad.json"
        row = _chaos_row()
        del row["availability"]
        path.write_text(json.dumps([row]))
        problems = trajectory.check(str(path))
        assert problems and "[0]" in problems[0]
        assert "availability" in problems[0]

    def test_committed_trajectories_replay_clean(self):
        # BENCH_sim.json's early rows predate several workload keys;
        # the grandfathering rule must keep the committed files green.
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for name in ("BENCH_sim.json", "BENCH_sweep.json",
                     "BENCH_explore.json", "BENCH_chaos.json"):
            assert trajectory.check(os.path.join(root, name)) == []

    def test_schema_regression_after_ratification_is_caught(
        self, tmp_path
    ):
        # Once a complete row exists, a later incomplete row of the
        # same workload is a hand-edit, not pre-schema history.
        complete = _chaos_row()
        regressed = _chaos_row(config=OTHER_CELL)
        del regressed["availability"]
        path = tmp_path / "BENCH_chaos.json"
        path.write_text(json.dumps([complete, regressed]))
        problems = trajectory.check(str(path))
        assert len(problems) == 1
        assert "[1]" in problems[0] and "availability" in problems[0]

    def test_pre_schema_history_is_grandfathered(self, tmp_path):
        # The incomplete row predates the complete one, so only the
        # newest row is held to the full schema.
        old = _chaos_row()
        del old["availability"]
        path = tmp_path / "BENCH_chaos.json"
        path.write_text(json.dumps([old, _chaos_row(config=OTHER_CELL)]))
        assert trajectory.check(str(path)) == []

    def test_unreadable_and_non_array_files_are_reported(self, tmp_path):
        assert trajectory.check(str(tmp_path / "nope.json"))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert "not valid JSON" in trajectory.check(str(garbled))[0]
        scalar = tmp_path / "scalar.json"
        scalar.write_text('{"a": 1}')
        assert "JSON array" in trajectory.check(str(scalar))[0]


class TestAppend:
    def test_append_validates_and_writes(self, tmp_path):
        path = str(tmp_path / "BENCH_chaos.json")
        trajectory.append(_chaos_row(), path)
        with pytest.raises(ValueError, match="duplicate"):
            trajectory.append(_chaos_row(), path)
        with open(path) as fp:
            rows = json.load(fp)
        assert len(rows) == 1
        assert rows[0]["label"] == "test"
        assert "timestamp" in rows[0]

    def test_committed_trajectories_validate_one_by_one(self):
        # Replay the frozen files through the validator: every row
        # must have been appendable at the time it was appended.
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for name in ("BENCH_sim.json", "BENCH_sweep.json",
                     "BENCH_explore.json"):
            rows = trajectory.load(os.path.join(root, name))
            for i, row in enumerate(rows):
                required = [
                    key for key in trajectory.BASE_KEYS
                    if key not in row
                ]
                assert not required, f"{name}[{i}] missing {required}"
                assert not any(
                    trajectory.identity(row)
                    == trajectory.identity(prior)
                    for prior in rows[:i]
                    if row.get("workload") is not None
                ), f"{name}[{i}] duplicates an earlier identity"
