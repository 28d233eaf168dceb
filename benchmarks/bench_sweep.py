"""Sweep-runner performance: serial vs. parallel vs. warm store.

Times the same Fig. 9 point set three ways and records the trajectory
in ``BENCH_sweep.json`` (see :mod:`repro.analysis.trajectory`):

* **serial** -- ``workers=1``, no store: the reference execution;
* **parallel** -- a fixed ``workers=2`` (CI's runner size, and what the
  committed ``BENCH_sweep.json`` row records), drained through a work
  queue; the speedup is *reported*, not asserted, because CI cores vary
  (this is the "informal" half of the acceptance bar);
* **warm store** -- everything already on disk: asserted to simulate
  exactly zero points (the strict half).

Determinism (parallel == serial bit-for-bit) is enforced by
``tests/analysis/test_sweep.py``; this file only measures.
"""

import os
import time

from conftest import bench_benchmarks, bench_trace_length

from repro.analysis import trajectory
from repro.analysis.experiments import figure_points
from repro.analysis.sweep import ResultStore, run_sweep

BENCH_SWEEP_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_sweep.json"
)

#: Parallel worker count: CI's runner size, fixed so rows compare.
WORKERS = 2


def _points():
    codes = list(bench_benchmarks())[:1]
    return figure_points("fig9", codes, bench_trace_length())


def _timed(label, **kwargs):
    points = _points()
    started = time.monotonic()
    result = run_sweep(points, **kwargs)
    wall = time.monotonic() - started
    print(f"{label:<10} {result.total:3d} points "
          f"({result.simulated} simulated, {result.store_hits} from store) "
          f"workers={result.workers} wall={wall:.2f}s "
          f"({result.total / wall:.1f} points/s)")
    return result, wall


def test_sweep_throughput(benchmark, tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    serial, serial_wall = _timed("serial", workers=1, store=None)

    parallel, parallel_wall = benchmark.pedantic(
        lambda: _timed("parallel", workers=WORKERS, store=store),
        rounds=1, iterations=1,
    )
    if parallel_wall > 0:
        print(f"speedup    {serial_wall / parallel_wall:.2f}x "
              f"at {WORKERS} workers (informal; cores vary)")

    warm, warm_wall = _timed("warm", workers=WORKERS, store=store)
    assert warm.simulated == 0, "warm store must not re-simulate"
    assert warm.store_hits == warm.total == serial.total

    trajectory.append({
        "label": "bench",
        "figures": ["fig9"],
        "workers": WORKERS,
        "points": parallel.total,
        "simulated": parallel.simulated,
        "wall_s": round(parallel_wall, 3),
        "trace_length": bench_trace_length(),
        "serial_wall_s": round(serial_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
    }, BENCH_SWEEP_PATH)
