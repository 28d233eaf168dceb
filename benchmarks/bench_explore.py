"""Explore-loop performance: analytical triage vs. brute-force DES.

Times ``doram explore`` on the smoke grid against the counterfactual
full sweep of the same grid and records the trajectory in
``BENCH_explore.json`` (the ``explore`` workload schema of
:mod:`repro.analysis.trajectory`):

* **explore** -- anchors + calibrated triage + selective simulation;
  asserted to stay inside the DES budget (``budget_frac`` of the
  grid);
* **brute force** -- every grid point simulated, the cost explore
  avoids; the ratio is *reported*, not asserted, because it scales
  with how much of the grid the frontier band covers.

Frontier correctness (explore's surface == the brute-force Pareto
front under affine truth) is enforced by
``tests/analysis/test_explore.py``; this file only measures.  Run it
with ``PYTHONPATH=src python -m pytest benchmarks/bench_explore.py -q
-s``; its scale and row label are the constants below.
"""

import os
import time

from repro.analysis import trajectory
from repro.analysis.explore import (
    bench_record,
    build_grid,
    explore,
    metrics_from_payload,
    pareto_indices,
)
from repro.analysis.sweep import ResultStore, run_sweep

BENCH_EXPLORE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_explore.json"
)

#: Memory accesses per core per grid point.
TRACE_LENGTH = 150

#: Re-measuring an identity (label+workload+config) is refused by the
#: trajectory schema, so this bench appends under its own label.
LABEL = "ci-bench"


def test_explore_vs_brute_force(tmp_path):
    grid = build_grid("smoke", TRACE_LENGTH)
    store = ResultStore(str(tmp_path / "store"))

    started = time.monotonic()
    result = explore(grid, store=store, workers=1, budget_frac=0.5, seed=1)
    explore_wall = time.monotonic() - started
    assert result.simulated <= result.budget
    print(f"explore    {result.grid_points:3d} points, "
          f"{result.simulated} simulated "
          f"({result.sim_fraction:.0%}; skipped "
          f"{result.des_points_skipped_frac:.0%}) in {result.rounds} "
          f"round(s), wall={explore_wall:.2f}s")

    started = time.monotonic()
    brute = run_sweep(grid, workers=1, store=None)
    brute_wall = time.monotonic() - started
    assert not brute.failed
    front = pareto_indices([
        metrics_from_payload(brute.payloads[p]) for p in grid
    ])
    print(f"brute      {brute.total:3d} points simulated, "
          f"frontier={len(front)}, wall={brute_wall:.2f}s")
    if explore_wall > 0:
        print(f"saving     {brute_wall / explore_wall:.2f}x "
              f"(informal; tracks the skipped fraction)")

    record = bench_record(result, LABEL, "smoke", TRACE_LENGTH,
                          explore_wall)
    record["brute_wall_s"] = round(brute_wall, 3)
    trajectory.append(record, BENCH_EXPLORE_PATH)
