"""``doram explore``: analytical triage + selective simulation.

A full design sweep of the D-ORAM configuration space (split depth x
channel sharing x tree size x pacer rate x sub-channel count) is
hundreds of DES points; most of them are nowhere near the
latency/goodput Pareto frontier and simulating them buys nothing.  The
explore loop spends the DES budget only where the analytical model
(:mod:`repro.analysis.model`) says the frontier plausibly lives:

1. **Anchor**: simulate a small, deterministic per-family anchor set
   and fit the per-family linear calibration;
2. **Score**: price every grid point with the calibrated model;
3. **Select**: the predicted Pareto frontier, plus every point within
   the *band* (not dominated by more than ``band_frac`` in both
   metrics), plus a seeded exploration sample of the rest (insurance
   against model blind spots);
4. **Simulate** the selection -- through ``run_sweep``, which drains
   the shared work queue ``queue_root/batch-NNN`` when ``queue_root``
   is set -- then **refit** and
   repeat until the predicted frontier is fully sim-confirmed, the
   budget (``budget_frac`` of the grid) is spent, or ``max_rounds``
   passes elapse;
5. **Report**: the measured Pareto surface, the model-vs-sim relative
   error on every simulated point (mean/p95 into
   ``BENCH_explore.json``), and the fraction of the grid the DES never
   had to touch.

Every selection rule is deterministic (seeded RNG, sorted iteration,
content-addressed store), so an explore run is exactly reproducible
and resumable: re-running over the same store re-simulates nothing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.model import (
    CalibratedModel,
    DoramModel,
    error_summary,
    fit_families,
    relative_error,
)
from repro.analysis.sweep import (
    ResultStore,
    RunPoint,
    dedup_points,
    run_sweep,
)
from repro.core.config import SystemConfig
from repro.core.schemes import make_config
from repro.sim.engine import TICKS_PER_NS

TICKS_PER_S = TICKS_PER_NS * 1e9


# ---------------------------------------------------------------------------
# Measured metrics
# ---------------------------------------------------------------------------


def metrics_from_payload(payload: Dict[str, object]) -> Tuple[float, float]:
    """(NS mean read latency us, S-App ORAM goodput rps) of one run."""
    result = payload["result"]
    nsr = result.get("ns_read_latency") or {}
    count = nsr.get("count") or 0
    lat_us = (
        nsr["total"] / count / TICKS_PER_NS / 1000.0 if count else 0.0
    )
    s_app = result.get("s_app") or {}
    end_time = result.get("end_time") or 0
    goodput = (
        s_app.get("oram_accesses", 0) / (end_time / TICKS_PER_S)
        if end_time else 0.0
    )
    return lat_us, goodput


def config_for_point(point: RunPoint) -> SystemConfig:
    """The resolved configuration a run-point simulates."""
    overrides = dict(point.overrides)
    overrides.setdefault("segment", point.segment)
    return make_config(
        point.scheme, point.benchmark, point.trace_length, **overrides
    )


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def build_grid(
    preset: str,
    trace_length: int,
    benchmark: str = "li",
) -> List[RunPoint]:
    """Named configuration grids for ``doram explore``.

    ``smoke``
        4 x 2 x 2 = 16 points (CI-sized): sharing limit, pacer rate,
        tree size.
    ``fig9``
        The paper's Fig. 9/11 scheme set on one benchmark -- the grid
        the pinned model-error test measures against.
    ``full``
        512 points: split depth (0-3) x sharing limit (0-7) x tree
        size x pacer rate x secure sub-channels -- the acceptance
        surface (>= 500 points, DES touches <= ``budget_frac``).
    """
    if preset == "smoke":
        points = [
            RunPoint(
                f"doram/{c}", benchmark, trace_length,
                overrides=(
                    ("oram.leaf_level", level),
                    ("t_cycles", t),
                ),
            )
            for c in (0, 2, 4, 7)
            for t in (50, 200)
            for level in (10, 14)
        ]
    elif preset == "fig9":
        schemes = (
            ["baseline"]
            + [f"doram/{c}" for c in range(7)]
            + ["doram", "doram+1", "doram+1/4"]
        )
        points = [
            RunPoint(scheme, benchmark, trace_length)
            for scheme in schemes
        ]
    elif preset == "full":
        points = [
            RunPoint(
                f"doram+{k}/{c}" if k else f"doram/{c}",
                benchmark, trace_length,
                overrides=(
                    ("oram.leaf_level", level),
                    ("t_cycles", t),
                    ("secure_subchannels", subs),
                ),
            )
            for k in (0, 1, 2, 3)
            for c in range(8)
            for level in (12, 16, 20, 23)
            for t in (50, 200)
            for subs in (2, 4)
        ]
    else:
        raise ValueError(
            f"unknown grid preset {preset!r} (smoke, fig9, full)"
        )
    return dedup_points(points)


GRID_PRESETS = ("smoke", "fig9", "full")


# ---------------------------------------------------------------------------
# Pareto machinery (minimize latency, maximize goodput)
# ---------------------------------------------------------------------------


def pareto_indices(metrics: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of the non-dominated points of ``(latency, goodput)``
    pairs -- lower latency and higher goodput both better."""
    order = sorted(
        range(len(metrics)),
        key=lambda i: (metrics[i][0], -metrics[i][1]),
    )
    front: List[int] = []
    best_goodput = float("-inf")
    for i in order:
        if metrics[i][1] > best_goodput:
            front.append(i)
            best_goodput = metrics[i][1]
    return sorted(front)


def deeply_dominated(
    metrics: Sequence[Tuple[float, float]],
    index: int,
    band_frac: float,
) -> bool:
    """True when some point beats ``index`` by more than ``band_frac``
    in *both* metrics -- i.e. the point is safely outside the frontier
    band even allowing for model error of that magnitude."""
    lat, good = metrics[index]
    lat_cut = lat / (1.0 + band_frac)
    good_cut = good * (1.0 + band_frac)
    for j, (lat_j, good_j) in enumerate(metrics):
        if j == index:
            continue
        if lat_j <= lat_cut and good_j >= good_cut:
            return True
    return False


# ---------------------------------------------------------------------------
# The explore loop
# ---------------------------------------------------------------------------


@dataclass
class ExploreResult:
    """Everything one explore run learned."""

    grid_points: int
    simulated: int
    budget: int
    budget_frac: float
    rounds: int
    #: Measured Pareto frontier: rows sorted by latency.
    frontier: List[Dict[str, object]]
    #: Model-vs-sim relative-error summaries per metric.
    latency_error: Dict[str, float]
    goodput_error: Dict[str, float]
    #: Per-family calibration coefficients (for the report).
    calibration: Dict[str, Dict[str, Dict[str, float]]]
    #: Points that failed to simulate, label -> reason.
    failed: Dict[str, str] = field(default_factory=dict)
    store_root: Optional[str] = None

    @property
    def sim_fraction(self) -> float:
        return self.simulated / self.grid_points if self.grid_points else 0.0

    @property
    def des_points_skipped_frac(self) -> float:
        return 1.0 - self.sim_fraction

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "grid_points": self.grid_points,
            "simulated": self.simulated,
            "sim_fraction": round(self.sim_fraction, 4),
            "budget": self.budget,
            "budget_frac": self.budget_frac,
            "rounds": self.rounds,
            "frontier": self.frontier,
            "latency_error": self.latency_error,
            "goodput_error": self.goodput_error,
            "calibration": self.calibration,
            "failed": dict(sorted(self.failed.items())),
            "store_root": self.store_root,
        }

    def markdown(self) -> str:
        lines = [
            "# D-ORAM Pareto surface (doram explore)",
            "",
            f"Grid: **{self.grid_points}** configurations; simulated "
            f"**{self.simulated}** "
            f"({self.sim_fraction:.1%}; DES skipped "
            f"{self.des_points_skipped_frac:.1%}) in {self.rounds} "
            f"round(s), budget {self.budget} "
            f"({self.budget_frac:.0%}).",
            "",
            f"Model-vs-sim relative error: latency mean "
            f"{self.latency_error['mean']:.3f} / p95 "
            f"{self.latency_error['p95']:.3f}; goodput mean "
            f"{self.goodput_error['mean']:.3f} / p95 "
            f"{self.goodput_error['p95']:.3f} "
            f"(n={self.latency_error['n']}).",
            "",
            "## Sim-confirmed frontier",
            "",
            "| config | NS read latency (us) | ORAM goodput (acc/s) |"
            " predicted lat (us) | predicted goodput |",
            "|---|---|---|---|---|",
        ]
        for row in self.frontier:
            lines.append(
                f"| `{row['label']}` | {row['latency_us']:.3f} | "
                f"{row['goodput_rps']:.3e} | "
                f"{row['predicted_latency_us']:.3f} | "
                f"{row['predicted_goodput_rps']:.3e} |"
            )
        if self.failed:
            lines += ["", "## Failed points", ""]
            lines += [
                f"- `{label}`: {reason}"
                for label, reason in sorted(self.failed.items())
            ]
        lines.append("")
        return "\n".join(lines)


MeasureFn = Callable[
    [Sequence[RunPoint]],
    Tuple[Dict[RunPoint, Tuple[float, float]], Dict[RunPoint, str]],
]


def _default_measure(
    store: Optional[ResultStore],
    workers: int,
    queue_root: Optional[str],
    timeout_s: Optional[float],
    progress: Optional[Callable[[str], None]],
) -> MeasureFn:
    """Simulate each batch through ``run_sweep``.

    With ``queue_root`` each batch declares its own shared queue
    directory (``batch-NNN`` under ``queue_root``): a work-queue
    manifest pins one point set, and successive explore rounds submit
    different ones.
    """
    batches = [0]

    def _measure(points: Sequence[RunPoint]):
        if not points:
            return {}, {}
        queue = None
        if queue_root is not None:
            queue = os.path.join(queue_root, f"batch-{batches[0]:03d}")
            batches[0] += 1
        sweep = run_sweep(
            list(points), workers=workers, store=store,
            timeout_s=timeout_s, progress=progress, queue=queue,
        )
        measured = {
            point: metrics_from_payload(payload)
            for point, payload in sweep.payloads.items()
        }
        failures = {
            point: reason for point, reason in sweep.failed.items()
        }
        return measured, failures

    return _measure


def _anchor_points(
    points: Sequence[RunPoint],
    configs: Dict[RunPoint, SystemConfig],
    model: DoramModel,
    per_family: int,
) -> List[RunPoint]:
    """A deterministic, spread anchor set: per calibration family, take
    evenly spaced points of the label-sorted members."""
    by_family: Dict[str, List[RunPoint]] = {}
    for point in points:
        by_family.setdefault(
            model.family(configs[point]), []
        ).append(point)
    anchors: List[RunPoint] = []
    for family in sorted(by_family):
        members = sorted(by_family[family], key=lambda p: p.label)
        take = min(per_family, len(members))
        if take == len(members):
            anchors.extend(members)
            continue
        step = (len(members) - 1) / max(take - 1, 1)
        picked = sorted({round(i * step) for i in range(take)})
        anchors.extend(members[i] for i in picked)
    return anchors


def explore(
    points: Sequence[RunPoint],
    store: Optional[ResultStore] = None,
    workers: int = 1,
    queue_root: Optional[str] = None,
    budget_frac: float = 0.2,
    anchors_per_family: int = 3,
    band_frac: float = 0.08,
    explore_frac: float = 0.2,
    max_rounds: int = 4,
    seed: int = 1,
    timeout_s: Optional[float] = None,
    measure: Optional[MeasureFn] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ExploreResult:
    """Recover the latency/goodput Pareto surface of ``points`` while
    simulating at most ``budget_frac`` of them.

    ``measure`` abstracts the simulator (tests substitute synthetic
    ground truth); the default runs through ``run_sweep``, draining a
    shared work queue per batch under ``queue_root`` when it is set.
    """
    points = dedup_points(points)
    if not points:
        raise ValueError("explore needs a non-empty grid")
    if not 0.0 < budget_frac <= 1.0:
        raise ValueError("budget_frac must be in (0, 1]")
    model = DoramModel()
    configs = {point: config_for_point(point) for point in points}
    budget = max(int(len(points) * budget_frac), 1)
    rng = random.Random(seed)
    if measure is None:
        measure = _default_measure(
            store, workers, queue_root, timeout_s, progress
        )

    measured: Dict[RunPoint, Tuple[float, float]] = {}
    failed: Dict[RunPoint, str] = {}

    def _say(text: str) -> None:
        if progress:
            progress(text)

    def _run(batch: Sequence[RunPoint]) -> None:
        fresh = [p for p in batch if p not in measured and p not in failed]
        if not fresh:
            return
        got, bad = measure(fresh)
        measured.update(got)
        failed.update(bad)

    # Round 0: anchors + calibration.
    anchors = _anchor_points(points, configs, model, anchors_per_family)
    anchors = anchors[:budget]
    _say(f"anchoring: {len(anchors)} points "
         f"(budget {budget}/{len(points)})")
    _run(anchors)
    rounds = 1

    def _calibrate() -> CalibratedModel:
        rows = [
            (configs[point], lat, good)
            for point, (lat, good) in sorted(
                measured.items(), key=lambda kv: kv[0].label
            )
        ]
        if not rows:
            return CalibratedModel(model=model)
        return fit_families(model, rows)

    calibrated = _calibrate()
    alive = [p for p in points if p not in failed]

    while rounds < max_rounds + 1:
        remaining = budget - len(measured)
        if remaining <= 0:
            break
        predictions = {
            point: calibrated.predict(configs[point]) for point in alive
        }
        metrics = [
            (predictions[p].ns_latency_us, predictions[p].goodput_rps)
            for p in alive
        ]
        front = {alive[i] for i in pareto_indices(metrics)}
        band = {
            alive[i]
            for i in range(len(alive))
            if not deeply_dominated(metrics, i, band_frac)
        }
        want = [p for p in alive
                if p in front and p not in measured]
        band_rest = sorted(
            (p for p in band - front if p not in measured),
            key=lambda p: p.label,
        )
        if not want and not band_rest:
            break  # frontier fully sim-confirmed
        explore_budget = int(remaining * explore_frac)
        selection = want + band_rest
        selection = selection[:max(remaining - explore_budget,
                                   len(want))]
        leftovers = sorted(
            (p for p in alive
             if p not in measured and p not in selection),
            key=lambda p: p.label,
        )
        if explore_budget > 0 and leftovers:
            selection += rng.sample(
                leftovers, min(explore_budget, len(leftovers))
            )
        selection = selection[:remaining]
        if not selection:
            break
        _say(f"round {rounds}: simulating {len(selection)} point(s) "
             f"({len(want)} frontier, {len(measured)} done)")
        _run(selection)
        calibrated = _calibrate()
        alive = [p for p in points if p not in failed]
        rounds += 1
        if all(p in measured for p in front):
            # The frontier predicted by the *refit* model may move;
            # loop once more unless the budget is gone.
            predictions = {
                point: calibrated.predict(configs[point])
                for point in alive
            }
            metrics = [
                (predictions[p].ns_latency_us,
                 predictions[p].goodput_rps)
                for p in alive
            ]
            front = {alive[i] for i in pareto_indices(metrics)}
            if all(p in measured for p in front):
                break

    # Final accounting off the measured surface.
    sim_points = sorted(measured, key=lambda p: p.label)
    sim_metrics = [measured[p] for p in sim_points]
    frontier_idx = pareto_indices(sim_metrics)
    lat_errors: List[float] = []
    good_errors: List[float] = []
    for point in sim_points:
        pred = calibrated.predict(configs[point])
        lat, good = measured[point]
        lat_errors.append(relative_error(pred.ns_latency_us, lat))
        good_errors.append(relative_error(pred.goodput_rps, good))
    frontier_rows = []
    for i in sorted(frontier_idx, key=lambda i: sim_metrics[i][0]):
        point = sim_points[i]
        pred = calibrated.predict(configs[point])
        lat, good = sim_metrics[i]
        frontier_rows.append({
            "label": point.label,
            "scheme": point.scheme,
            "overrides": [list(kv) for kv in point.overrides],
            "latency_us": round(lat, 6),
            "goodput_rps": round(good, 3),
            "predicted_latency_us": round(pred.ns_latency_us, 6),
            "predicted_goodput_rps": round(pred.goodput_rps, 3),
            "bottleneck": pred.bottleneck,
        })
    calibration = {
        family: {
            metric: {"a": fit.a, "b": fit.b, "points": fit.points}
            for metric, fit in sorted(fits.items())
        }
        for family, fits in sorted(calibrated.fits.items())
    }
    return ExploreResult(
        grid_points=len(points),
        simulated=len(measured),
        budget=budget,
        budget_frac=budget_frac,
        rounds=rounds,
        frontier=frontier_rows,
        latency_error=error_summary(lat_errors),
        goodput_error=error_summary(good_errors),
        calibration=calibration,
        failed={p.label: reason for p, reason in failed.items()},
        store_root=store.root if store is not None else None,
    )


# ---------------------------------------------------------------------------
# BENCH_explore.json
# ---------------------------------------------------------------------------

def bench_record(
    result: ExploreResult,
    label: str,
    grid: str,
    trace_length: int,
    wall_s: float,
) -> Dict[str, object]:
    """One ``BENCH_explore.json`` row (the ``explore`` workload schema
    of :mod:`repro.analysis.trajectory`)."""
    return {
        "label": label,
        "workload": "explore",
        "config": grid,
        "trace_length": trace_length,
        "wall_s": round(wall_s, 3),
        "grid_points": result.grid_points,
        "simulated": result.simulated,
        "sim_fraction": round(result.sim_fraction, 4),
        "des_points_skipped_frac": round(
            result.des_points_skipped_frac, 4
        ),
        "budget_frac": result.budget_frac,
        "rounds": result.rounds,
        "frontier_size": len(result.frontier),
        "latency_err_mean": round(result.latency_error["mean"], 4),
        "latency_err_p95": round(result.latency_error["p95"], 4),
        "goodput_err_mean": round(result.goodput_error["mean"], 4),
        "goodput_err_p95": round(result.goodput_error["p95"], 4),
    }


def write_report(
    result: ExploreResult,
    out_json: Optional[str] = None,
    out_md: Optional[str] = None,
) -> None:
    if out_json:
        with open(out_json, "w") as fp:
            json.dump(result.to_json_dict(), fp, indent=2,
                      sort_keys=True)
            fp.write("\n")
    if out_md:
        with open(out_md, "w") as fp:
            fp.write(result.markdown())
