"""Tests of the end-to-end benchmark harness (not of the simulator).

    python -m pytest benchmarks/e2e -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from sampler import CALIBRATION, HARNESS, Sampler  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def _module_named(name: str, source: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    return module


_BUSY = """
import statistics

def busy(seconds, clock):
    end = clock() + seconds
    while clock() < end:
        statistics.fmean([1.0, 2.0, 3.0])
"""


def test_sampler_credits_the_innermost_layer_frame():
    # Stdlib work (statistics) called from a repro.dram frame belongs to
    # dram; the same loop outside any repro module belongs to the harness.
    dram = _module_named("repro.dram.busy_fixture", _BUSY)
    outside = _module_named("busy_fixture", _BUSY)
    sampler = Sampler()
    sampler.start()
    try:
        dram.busy(0.3, time.process_time)
        outside.busy(0.1, time.process_time)
    finally:
        sampler.stop()
    assert sampler.samples >= 40
    assert sampler.counts["dram"] >= 0.6 * sampler.samples
    assert sampler.counts[HARNESS] >= 0.1 * sampler.samples
    assert sum(v for k, v in sampler.counts.items()
               if k not in ("dram", HARNESS)) <= 0.05 * sampler.samples
    seconds = sampler.self_seconds()
    assert sum(seconds.values()) == pytest.approx(sampler.cpu_s)


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------

def _records(values, workload="fig9_segment", metric="wall_s"):
    return [{"workload": workload, "seed": i, "trace": 0, "correct": True,
             "metrics": {metric: {"value": v, "unit": "s"}}}
            for i, v in enumerate(values)]


_WALL = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
_BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]


def test_compare_flags_a_20_percent_slowdown():
    rows = compare.compare(_records(_BASE),
                           _records([v * 1.2 for v in _BASE]), _WALL)
    assert [row["verdict"] for row in rows] == ["regressed"]
    assert rows[0]["change"] == pytest.approx(0.2, abs=0.01)


def test_compare_passes_identical_sets():
    rows = compare.compare(_records(_BASE), _records(_BASE), _WALL)
    assert [row["verdict"] for row in rows] == ["ok"]


def test_compare_is_unresolved_when_the_spread_exceeds_the_bound():
    wide = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    rows = compare.compare(_records(_BASE), _records(wide), _WALL)
    assert [row["verdict"] for row in rows] == ["unresolved"]


def _write(path, records):
    path.write_text(json.dumps(records))
    return str(path)


@pytest.fixture
def wall_only(tmp_path, monkeypatch):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": _WALL}))
    monkeypatch.setattr(compare, "BENCHMARK", str(bench))


def test_compare_exit_status(tmp_path, wall_only):
    a = _write(tmp_path / "a.json", _records(_BASE))
    slower = _write(tmp_path / "b.json", _records([v * 1.2 for v in _BASE]))
    assert compare.main([a, a]) == 0
    assert compare.main([a, slower]) == 1


def test_compare_exits_2_when_a_pair_is_unresolved(tmp_path, wall_only):
    a = _write(tmp_path / "a.json", _records(_BASE))
    wide = _write(tmp_path / "wide.json", _records(
        [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]))
    missing = _write(tmp_path / "missing.json", _records(_BASE, "serve"))
    assert compare.main([a, wide]) == 2
    assert compare.main([a, missing]) == 2


def _fig9(errors, workload="repro"):
    return [{"workload": workload, "seed": i, "trace": 0, "correct": True,
             "metrics": {}, "paper_fig9_err": e}
            for i, e in enumerate(errors)]


def test_compare_gates_fig9_accuracy_seed_by_seed():
    same = compare.fig9_rows(_fig9([0.09, 0.10]), _fig9([0.09, 0.1005]))
    assert [row["verdict"] for row in same] == ["ok"]
    worse = compare.fig9_rows(_fig9([0.09, 0.10]), _fig9([0.09, 0.102]))
    assert [row["verdict"] for row in worse] == ["regressed"]
    assert worse[0]["change"] == pytest.approx(0.002)
    # Errors of different seeds are not comparable.
    disjoint = compare.fig9_rows(_fig9([0.09]), _fig9([0.5, 0.5])[1:])
    assert [row["verdict"] for row in disjoint] == ["unresolved"]


# ---------------------------------------------------------------------------
# Pass accounting
# ---------------------------------------------------------------------------

def _pass(digest, traced=False, wall=1.0, speed_factor=1.0):
    return {"wall_s": wall, "traced": traced, "import_s": 0.1,
            "build_s": 0.05, "run_s": 0.5, "events": 1000, "dispatches": 900,
            "peak_rss_mb": 30.0, "attempted": 3, "failures": [],
            "digest": digest, "speed_factor": speed_factor, "slice_s": 0.02,
            "extra": {}}


def test_a_pass_whose_digest_differs_counts_as_failed():
    passes = [_pass("aaa"), _pass("bbb"), _pass("aaa")]
    record = run.summarize("fig9_segment", 0, 1.0, False, passes)
    assert record["attempted"] == 9
    assert record["failed"] == 3
    assert record["correct"] is False
    assert "differs" in record["failures"][0]


def test_agreeing_passes_are_correct():
    record = run.summarize("fig9_segment", 0, 1.0, False,
                           [_pass("aaa") for _ in range(3)])
    assert (record["correct"], record["failed"]) == (True, 0)
    assert set(record["metrics"]) == set(run.END_TO_END_UNITS)
    assert "paper_fig9_err" not in record


def test_an_untraced_run_records_the_fig9_error_for_compare():
    passes = [_pass("aaa") for _ in range(3)]
    for p in passes:
        p["extra"] = {"analysis.paper_fig9_err": 0.0961}
    record = run.summarize("repro", 0, 1.0, False, passes)
    assert record["paper_fig9_err"] == 0.0961


def test_wall_time_is_scaled_to_the_reference_host_speed():
    # A host running the calibration slices at half the reference speed
    # halves the wall time the parent measured.  The child's phase times
    # are on the reference clock already.
    slow = run.summarize("serve", 0, 1.0, False, [
        _pass("aaa", wall=2.0, speed_factor=0.5) for _ in range(3)])
    metrics = {k: v["value"] for k, v in slow["metrics"].items()}
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.15)
    assert metrics["sim_events_per_s"] == pytest.approx(2000.0)
    assert metrics["peak_rss_mb"] == pytest.approx(30.0)


def test_the_slicer_keeps_a_reference_clock_without_its_slices():
    origin = time.monotonic()
    slicer = speed.Slicer()
    slicer.start(origin)
    readings = []
    try:
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            readings.append(slicer.ref_clock())
    finally:
        slicer.stop()
    assert len(slicer.slices) >= 5
    assert slicer.spent_s == pytest.approx(sum(slicer.slices))
    assert readings == sorted(readings)
    speeds = [speed.REFERENCE_SLICE_S / s for s in slicer.slices]
    assert slicer.factor() == pytest.approx(sum(speeds) / len(speeds))
    elapsed = time.monotonic() - origin - slicer.spent_s
    assert min(speeds) * elapsed * 0.9 <= readings[-1]
    assert readings[-1] <= max(speeds) * elapsed * 1.1


def test_a_crashed_pass_counts_as_failed():
    crashed = {"wall_s": 0.2, "traced": False, "error": "child exited 1",
               "attempted": 1, "failures": ["child exited 1"]}
    record = run.summarize("serve", 0, 1.0, False, [_pass("aaa"), crashed])
    assert record["correct"] is False and record["failed"] == 1


# ---------------------------------------------------------------------------
# Names and declared metrics
# ---------------------------------------------------------------------------

def test_every_name_is_valid(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"]]
    names += [m["name"] for m in declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert tuple(w["name"] for w in declared["workloads"]) \
        == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_declared_metrics_match_the_harness(declared):
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert units == run.END_TO_END_UNITS
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert units == run.PER_LAYER_UNITS


def test_a_traced_pass_emits_every_declared_metric(declared):
    # One real traced pass of the cheapest workload, summarized with an
    # untraced sibling: the printed metrics are exactly the declared ones.
    traced = run.run_child("fig9_segment", 0, True, 0, 120.0)
    assert "error" not in traced, traced.get("error")
    untraced = dict(traced, traced=False)
    record = run.summarize("fig9_segment", 0, 1.0, True, [untraced, traced])
    assert record["correct"], record["failures"]
    assert set(record["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for name, metric in record["metrics"].items():
        assert isinstance(metric["value"], float), name
    # The calibration slices are credited to no layer.  Their sampled CPU
    # time roughly matches their measured wall time.
    self_s = traced["self_s"]
    layers_total = sum(self_s[layer] for layer in run.LAYERS)
    assert layers_total + self_s[CALIBRATION] == pytest.approx(
        traced["cpu_s"])
    assert 0.5 * traced["slice_s"] <= self_s[CALIBRATION] \
        <= 1.5 * traced["slice_s"]
    assert layers_total <= traced["wall_s"]


def test_run_fails_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark itself.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
