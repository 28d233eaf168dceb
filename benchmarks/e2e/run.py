"""End-to-end benchmark of the D-ORAM simulator.

    python3 benchmarks/e2e/run.py --workload NAME [--workload NAME ...]
        [--seed S] [--seconds N] [--trace 0|1] [--out RESULTS.json]

Runs from the repository root.  For each workload it runs back-to-back
passes, one at a time, each in a fresh child interpreter (``child.py``)
that imports ``repro`` from ``src/``: at least three passes, and more
until ``--seconds`` of passes have run.  Users pay imports and cold
trace materialization on every ``doram`` invocation, so fresh processes
keep that cost in the measurement; ``setup_s`` reports it on its own.
Sweeps use one worker, so the load is one process at a time.

Times are reported in reference-host seconds: every 25 ms each pass
times a short slice of a fixed calibration loop, and its measured times
(slices taken out) are scaled by how fast the host ran those slices
(``speed.py``).  The run record keeps the measured values and the scale
factor beside them.

``--trace 0`` prints the end-to-end metrics (medians over the passes).
``--trace 1`` interleaves untraced and traced passes and prints the
per-layer metrics: sampled self time per ``repro`` layer, phase spans,
exact simulated work counts, unit costs and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` appends
the full run record (per-pass values, digests, host) to a JSON list.

A pass fails when its workload reports a failed simulation, when its
child exits without a result, or when its result digest differs from
the other passes of the run.  ``DORAM_*`` variables reach the program
unchanged and are recorded with the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from sampler import HARNESS
from sampler import LAYERS as _SAMPLED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORKDIR = os.path.join(ROOT, ".bench_build", "e2e")

WORKLOAD_NAMES = ("fig9_segment", "repro", "serve", "chaos")
#: A round is one pass, or an untraced and a traced pass in a traced run.
MIN_ROUNDS = 3
MAX_ROUNDS = 40
#: A run starts no round that would end past this, so that it exits
#: within three minutes.
RUN_BUDGET_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

LAYERS = _SAMPLED + (HARNESS,)
PHASES = ("import", "build", "run", "verify", "durability", "store", "other")
COUNTS = ("sim.events", "sim.dispatches", "cpu.accesses", "dram.requests",
          "oram.accesses", "scenarios.completed", "faults.injected",
          "analysis.points", "crypto.functional_ops")
#: Unit costs: (self-time layer, count, scale to the unit).
UNIT_COSTS = {
    "sim.ns_per_dispatch": ("sim", "sim.dispatches", 1e9, "ns"),
    "cpu.ns_per_access": ("cpu", "cpu.accesses", 1e9, "ns"),
    "dram.ns_per_request": ("dram", "dram.requests", 1e9, "ns"),
    "bob.ns_per_request": ("bob", "dram.requests", 1e9, "ns"),
    "oram.us_per_access": ("oram", "oram.accesses", 1e6, "us"),
    "core.us_per_oram_access": ("core", "oram.accesses", 1e6, "us"),
    "crypto.ms_per_functional_op": ("crypto", "crypto.functional_ops",
                                    1e3, "ms"),
    "analysis.ms_per_point": ("analysis", "analysis.points", 1e3, "ms"),
}
CONTEXT_UNITS = {
    "sim.dispatches_per_event": "ratio",
    "dram.row_hit_rate": "ratio",
    "oram.real_frac": "ratio",
    "scenarios.p99_ns": "ns",
    "scenarios.rejected_frac": "ratio",
    "analysis.paper_fig9_err": "ratio",
    "trace_overhead": "ratio",
}

PER_LAYER_UNITS: Dict[str, str] = {}
PER_LAYER_UNITS.update({f"phase.{p}_s": "s" for p in PHASES})
PER_LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER_UNITS["sampler.samples"] = "count"
PER_LAYER_UNITS.update({name: "count" for name in COUNTS})
PER_LAYER_UNITS.update({name: spec[3] for name, spec in UNIT_COSTS.items()})
PER_LAYER_UNITS.update(CONTEXT_UNITS)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_child(workload: str, seed: int, traced: bool, index: int,
              timeout_s: float) -> Dict[str, object]:
    """One pass in a fresh interpreter; returns its record.

    A record always has ``wall_s`` and ``attempted``/``failures``; a
    child that crashed or timed out leaves an ``error`` instead of
    metrics.
    """
    os.makedirs(WORKDIR, exist_ok=True)
    out_path = os.path.join(WORKDIR, f"pass-{os.getpid()}-{index}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), WORKDIR, out_path,
             repr(spawned), "1" if traced else "0"],
            env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=timeout_s,
        )
        error = None
        if proc.returncode != 0:
            tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
            error = f"child exited {proc.returncode}: {tail[0]}"
    except subprocess.TimeoutExpired:
        error = f"child timed out after {timeout_s:.0f} s"
    wall = time.monotonic() - spawned
    record: Dict[str, object] = {"wall_s": wall, "traced": traced}
    if error is None:
        try:
            with open(out_path) as fp:
                record.update(json.load(fp))
            record["wall_s"] = wall - record["slice_s"]
        except (OSError, ValueError) as exc:
            error = f"no pass result: {exc}"
    if os.path.exists(out_path):
        os.remove(out_path)
    if error is not None:
        record.update({"error": error, "attempted": 1, "failures": [error]})
    return record


def run_passes(workload: str, seed: int, seconds: float,
               traced: bool) -> List[Dict[str, object]]:
    """Closed loop: each pass starts after the previous one exited.

    A traced run alternates untraced and traced passes so that drift in
    the host's speed affects both sides of ``trace_overhead`` alike.
    """
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S + 20.0
    passes: List[Dict[str, object]] = []
    kinds = (False, True) if traced else (False,)
    for rounds in range(1, MAX_ROUNDS + 1):
        round_started = time.monotonic()
        for kind in kinds:
            passes.append(run_child(workload, seed, kind, len(passes),
                                    max(deadline - time.monotonic(), 1.0)))
        now = time.monotonic()
        if any("error" in p for p in passes):
            break
        if (now - started) + (now - round_started) > RUN_BUDGET_S:
            break
        if rounds >= MIN_ROUNDS and now - started >= seconds:
            break
    return passes


def mark_digest_failures(passes: List[Dict[str, object]]) -> None:
    """A pass whose digest differs from the run's most common digest
    counts every simulation it attempted as failed."""
    digests = [p["digest"] for p in passes if "digest" in p]
    if not digests:
        return
    reference = max(digests, key=lambda d: (digests.count(d),
                                            -digests.index(d)))
    for p in passes:
        if "digest" in p and p["digest"] != reference:
            p["failures"] = [
                f"digest {p['digest'][:12]} differs from its siblings' "
                f"{reference[:12]}"
            ] * int(p["attempted"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(p: Dict[str, object]) -> Dict[str, float]:
    """End-to-end metrics of one pass, times in reference-host seconds.

    The child times its phases on the reference clock; the wall time,
    measured here, is scaled by the pass's mean speed.  The measured
    wall time and that factor stay in the row too.
    """
    scale = float(p["speed_factor"])
    wall = float(p["wall_s"])
    run_s = float(p["run_s"])
    return {
        "wall_s": wall * scale,
        "setup_s": float(p["import_s"]) + float(p["build_s"]),
        "sim_events_per_s": float(p["events"]) / run_s if run_s > 0 else 0.0,
        "peak_rss_mb": float(p["peak_rss_mb"]),
        "speed_factor": scale,
        "measured_wall_s": wall,
    }


def per_layer(p: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``trace_overhead`` aside),
    times in reference-host seconds like :func:`end_to_end`."""
    scale = float(p["speed_factor"])
    out: Dict[str, float] = {}
    phases = dict(p["phases"])
    phases["import"] = float(p["import_s"])
    phases["other"] = float(p["wall_s"]) * scale - sum(
        phases.get(name, 0.0) for name in PHASES if name != "other")
    for name in PHASES:
        out[f"phase.{name}_s"] = phases.get(name, 0.0)
    self_s = p["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_s.get(layer, 0.0)) * scale
    out["sampler.samples"] = float(p["samples"])
    counts = dict(p["counts"])
    counts["sim.events"] = p["events"]
    counts["sim.dispatches"] = p["dispatches"]
    for name in COUNTS:
        out[name] = float(counts[name])
    for name, (layer, count, per_unit, _unit) in UNIT_COSTS.items():
        denominator = out[count]
        out[name] = (out[f"{layer}.self_s"] * per_unit / denominator
                     if denominator else 0.0)
    out["sim.dispatches_per_event"] = (
        out["sim.dispatches"] / out["sim.events"] if out["sim.events"] else 0.0)
    for name in ("dram.row_hit_rate", "oram.real_frac", "scenarios.p99_ns",
                 "scenarios.rejected_frac", "analysis.paper_fig9_err"):
        out[name] = float(counts[name])
    return out


def _median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def host_info() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "doram_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("DORAM_")},
    }


def summarize(workload: str, seed: int, seconds: float, traced: bool,
              passes: List[Dict[str, object]]) -> Dict[str, object]:
    """The run record: verdict, medians and per-pass values."""
    mark_digest_failures(passes)
    attempted = sum(int(p["attempted"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = min(len(failures), attempted)
    good = [p for p in passes if "error" not in p]
    untraced = [end_to_end(p) for p in good if not p["traced"]]
    record: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "passes": len(untraced),
        "host": host_info(),
        "correct": failed == 0 and bool(untraced),
        "attempted": max(attempted, 1),
        "failed": failed if untraced else max(failed, 1),
        "failures": failures[:20],
        "digests": [p.get("digest") for p in passes],
        "per_pass": {"end_to_end": untraced},
    }
    # Deterministic for a seed, so any pass gives it; compare.py gates it.
    for p in good:
        if "analysis.paper_fig9_err" in p.get("extra", {}):
            record["paper_fig9_err"] = p["extra"]["analysis.paper_fig9_err"]
            break
    if not untraced:
        record["metrics"] = {}
        return record
    medians = _median_of(untraced)
    if not traced:
        record["metrics"] = {
            name: {"value": medians[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        return record
    layered = [per_layer(p) for p in good if p["traced"]]
    record["per_pass"]["per_layer"] = layered
    if not layered:
        record["metrics"] = {}
        return record
    layer_medians = _median_of(layered)
    traced_wall = statistics.median(
        end_to_end(p)["wall_s"] for p in good if p["traced"])
    layer_medians["trace_overhead"] = traced_wall / medians["wall_s"] - 1.0
    record["metrics"] = {
        name: {"value": layer_medians[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    record["spans"] = [p["spans"] for p in good if p["traced"]]
    return record


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def chrome_trace(span_sets: List[List[list]]) -> Dict[str, object]:
    """Chrome trace-event JSON (loads in Perfetto): one process per
    traced pass, times in microseconds from the pass's first span."""
    events = []
    for pid, rows in enumerate(span_sets):
        origin = min((row[1] for row in rows), default=0.0)
        for name, start, end, _parent in rows:
            if end is None:
                continue
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_spans(record: Dict[str, object]) -> None:
    """Move the traced spans out of the record into two files."""
    span_sets = record.pop("spans", None)
    if not span_sets:
        return
    stem = os.path.join(WORKDIR, f"{record['workload']}-seed{record['seed']}")
    with open(stem + ".spans.json", "w") as fp:
        json.dump(span_sets, fp)
    with open(stem + ".perfetto.json", "w") as fp:
        json.dump(chrome_trace(span_sets), fp)
    record["span_files"] = [os.path.relpath(stem + ext, ROOT)
                            for ext in (".spans.json", ".perfetto.json")]


def append_record(path: str, record: Dict[str, object]) -> None:
    records = []
    if os.path.exists(path):
        with open(path) as fp:
            records = json.load(fp)
    records.append(record)
    tmp = path + ".tmp"
    with open(tmp, "w") as fp:
        json.dump(records, fp, indent=1, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, path)


def print_report(record: Dict[str, object]) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  passes={record['passes']}  "
          f"correct={record['correct']}  "
          f"failed={record['failed']}/{record['attempted']}")
    digests = sorted({d for d in record["digests"] if d})
    print("   digest " + " ".join(digests))
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<28} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep adding passes until this much time ran")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append run records to this JSON list")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    for workload in args.workload or WORKLOAD_NAMES:
        passes = run_passes(workload, args.seed, args.seconds,
                            bool(args.trace))
        record = summarize(workload, args.seed, args.seconds,
                           bool(args.trace), passes)
        write_spans(record)
        print_report(record)
        if args.out:
            append_record(args.out, record)
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
