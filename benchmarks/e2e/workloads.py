"""The benchmark's end-to-end workloads and what they count.

Each workload is a function ``(seed, workdir) -> Outcome`` that one
child process runs once per pass.  The seed chooses the inputs; the
program sees only the inputs.  Every workload calls the public
``repro`` entry points a user would call, at a scale one pass of which
takes a few seconds on a 2-CPU host.

Correctness is checked without pinning simulated values (a change to
the model may move them): a simulation fails when it raises, when a
sweep point fails, when a tenant ends with ``completed != admitted``,
or when the chaos invariant harness reports a violation.  ``run.py``
adds the determinism check: every pass of a run must produce the
same result digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from typing import Callable, Dict, Iterable, List, Optional

#: ``BENCH_sim.json``'s ``fig9_segment``: these schemes on libq at trace
#: length 2000, so its wall-time history stays comparable.
FIG9_SCHEMES = ("baseline", "doram", "doram+1")
FIG9_BENCHMARK = "libq"
FIG9_TRACE_LENGTH = 2000

#: ``repro``: every figure over one light, one medium and one heavy
#: Table III benchmark.  The light one is fixed to comm4, the CPU-bound
#: trace; the seed picks a (medium, heavy) pair.  Picking all three by
#: seed moved a pass's host time by 15 % or more, so the pairs were
#: matched on measured host cost: each costs within 1.3 % of 3.23 s on
#: the 2-CPU reference host (c4 alone: 2.84 s).  The medium benchmarks
#: c1 (2.11 s) and li (1.59 s) have no heavy partner that close.
REPRO_LIGHT = "c4"
REPRO_PAIRS = (("fe", "le"), ("sw", "mu"), ("c2", "st"),
               ("fe", "fa"), ("sw", "fl"))
REPRO_TRACE_LENGTH = 200
#: The paper's Fig. 9 gmeans (Baseline = 1.0).
PAPER_FIG9_GMEANS = {"doram": 0.875, "doram_x": 0.775,
                     "doram+1": 0.886, "doram+1/4": 0.814}

#: ``serve``: the open-loop multi-tenant service path at L=23.
SERVE_OVERRIDES = {
    "num_tenants": 8,
    "arrival.rate_rps": 50_000.0,
    "horizon_ns": 1_000_000.0,
    "write_fraction": 0.25,
    "slo_target_ns": 4000.0,
}

#: ``chaos``: workload ``w1`` of ``examples/campaigns/ci-smoke.json``
#: (kept here so that editing the example cannot change the benchmark).
#: One pass runs the cell at the top of the link-corruption ramp.  The
#: fault-armed timing run uses trace length 1000 (not 100) and the
#: durability oracle 20 functional operations (not 50): at ci-smoke's
#: sizes ``Engine.run`` took 0.14 s of a 4.5 s pass, too little to time
#: its event rate on a busy host, and only three or four passes fit in
#: a run.  Crypto is still the largest layer.
CHAOS_CAMPAIGN = {
    "name": "e2e-chaos",
    "points": 3,
    "schemes": ["doram"],
    "scenario": {"num_tenants": 2, "horizon_ns": 8000.0,
                 "queue_cap": 256, "oram.leaf_level": 12},
    "workloads": [{"arrival.rate_rps": 300000.0}],
    "link": [{"kind": "corrupt", "link": "bob*.down",
              "rate": {"lo": 0.0, "hi": 0.05, "mode": "ramp"}}],
    "dram": [{"channel": "ch0*", "rate": 0.005}],
    "slo_ns": 3000.0,
    "trace_length": 1000,
    "functional_ops": 20,
}
CHAOS_POINT = 2


def canonical(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Outcome:
    """What one pass of a workload produced."""

    def __init__(self, attempted: int) -> None:
        #: Simulations the pass attempted.
        self.attempted = attempted
        self.failures: List[str] = []
        #: Workload-specific exact outputs, reported as layer metrics.
        self.extra: Dict[str, float] = {}
        self._sha = hashlib.sha256()

    def record(self, doc: object) -> None:
        """Fold one simulation's canonical output into the digest."""
        self._sha.update(canonical(doc).encode("utf-8"))

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


def fig9_segment(seed: int, workdir: str) -> Outcome:
    """DRAM-heavy steady state with every D-ORAM layer active."""
    from repro.core.schemes import run_scheme

    outcome = Outcome(attempted=len(FIG9_SCHEMES))
    for scheme in FIG9_SCHEMES:
        try:
            result = run_scheme(scheme, FIG9_BENCHMARK, FIG9_TRACE_LENGTH,
                                segment=seed)
        except Exception as exc:  # noqa: BLE001 - a failed simulation
            outcome.fail(f"{scheme}: {_describe(exc)}")
            continue
        if not result.ns_finish or result.events <= 0:
            outcome.fail(f"{scheme}: no NS-App finished")
        outcome.record(result.to_json_dict())
    return outcome


def repro(seed: int, workdir: str) -> Outcome:
    """Regenerate every figure, as ``doram exp`` does, into a fresh store."""
    from repro.analysis.experiments import (
        ALL_FIGURES,
        points_for_figures,
        run_figures,
    )
    from repro.analysis.sweep import ResultStore, SweepFailure

    medium, heavy = REPRO_PAIRS[seed % len(REPRO_PAIRS)]
    codes = [REPRO_LIGHT, medium, heavy]
    points = points_for_figures(ALL_FIGURES, codes, REPRO_TRACE_LENGTH)
    outcome = Outcome(attempted=len(points))
    store_dir = os.path.join(workdir, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        figures, sweep = run_figures(
            ALL_FIGURES, codes, trace_length=REPRO_TRACE_LENGTH,
            workers=1, store=ResultStore(store_dir),
        )
    except SweepFailure as exc:
        for point, reason in exc.sweep_result.failed.items():
            outcome.fail(f"{point.label}: {reason}")
        return outcome
    except Exception as exc:  # noqa: BLE001 - a figure function failed
        outcome.failures = [_describe(exc)] * len(points)
        return outcome
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    gmeans = figures["fig9"]["gmean"]
    errors = [abs(gmeans[key] - paper)
              for key, paper in PAPER_FIG9_GMEANS.items()]
    if not all(math.isfinite(e) for e in errors):
        outcome.fail(f"fig9 gmeans not finite: {gmeans}")
    outcome.extra["analysis.paper_fig9_err"] = sum(errors) / len(errors)
    results = sweep.results()
    outcome.extra["analysis.points"] = len(results)
    outcome.record(figures)
    for point in sorted(results, key=lambda p: p.key()):
        outcome.record(results[point].to_json_dict())
    return outcome


def serve(seed: int, workdir: str) -> Outcome:
    """Open-loop tenants with the admission governor on."""
    from repro.scenarios.config import ScenarioConfig, apply_overrides
    from repro.scenarios.service import run_scenario

    outcome = Outcome(attempted=1)
    config = apply_overrides(ScenarioConfig(),
                             dict(SERVE_OVERRIDES, seed=1 + seed))
    try:
        result = run_scenario(config)
    except Exception as exc:  # noqa: BLE001
        outcome.fail(_describe(exc))
        return outcome
    for tenant, row in sorted(result.tenants.items()):
        if row["completed"] != row["admitted"]:
            outcome.fail(f"tenant {tenant}: completed {row['completed']} "
                         f"!= admitted {row['admitted']}")
    outcome.record(result.report_digest())
    return outcome


def chaos(seed: int, workdir: str) -> Outcome:
    """A fault-armed cell: invariant oracle, scenario and scoring."""
    from repro.faults.campaign import CampaignSpec, FaultPoint

    outcome = Outcome(attempted=1)
    spec = CampaignSpec.from_json_dict(dict(CHAOS_CAMPAIGN, seed=5 + seed))
    point = FaultPoint(spec=spec, index=CHAOS_POINT, scheme="doram")
    try:
        payload = point.execute()
    except Exception as exc:  # noqa: BLE001
        outcome.fail(_describe(exc))
        return outcome
    invariants = payload["invariants"]
    if not invariants["ok"]:
        outcome.fail("invariants: " + "; ".join(invariants["violations"]))
    availability = payload["availability"]["availability"]
    if not 0.0 <= availability <= 1.0:
        outcome.fail(f"availability {availability} outside [0, 1]")
    durability = invariants["durability"]
    outcome.extra["crypto.functional_ops"] = (
        durability.get("reads", 0) + durability.get("writes", 0)
    )
    outcome.extra["faults.functional_flips"] = durability.get(
        "flips_injected", 0)
    outcome.record(payload)
    return outcome


WORKLOADS: Dict[str, Callable[[int, str], Outcome]] = {
    "fig9_segment": fig9_segment,
    "repro": repro,
    "serve": serve,
    "chaos": chaos,
}


# ---------------------------------------------------------------------------
# Exact simulated work, read from the results of one traced pass
# ---------------------------------------------------------------------------

#: Fault counters that record an injection (the rest record recovery).
_INJECTION_PREFIXES = ("link_", "dram_flips", "uninjectable")


def _injected(fault_summary: Optional[Dict]) -> int:
    counters = (fault_summary or {}).get("faults", {})
    return int(sum(value for name, value in counters.items()
                   if name.startswith(_INJECTION_PREFIXES)))


def layer_counts(sim_results: Iterable, scenario_results: Iterable,
                 extra: Dict[str, float]) -> Dict[str, float]:
    """Work counts and simulated context from every SimResult and
    ScenarioResult a pass produced, plus the workload's own extras."""
    cpu_accesses = 0
    dram_requests = 0
    row_hits = 0.0
    oram_real = oram_total = 0
    injected = int(extra.get("faults.functional_flips", 0))
    channel_rows: List[Dict] = []
    for result in sim_results:
        cpu_accesses += (result.ns_read_latency.count
                         + result.ns_write_latency.count)
        channel_rows.extend(result.channels.values())
        for stats in result.component_stats.values():
            if "real_accesses" in stats:
                oram_real += int(stats["real_accesses"])
                oram_total += int(stats["real_accesses"]
                                  + stats.get("dummy_accesses", 0))
        injected += _injected(result.fault_summary)
    completed = offered = admitted = 0
    p99 = 0.0
    for result in scenario_results:
        channel_rows.extend(result.channels.values())
        for row in result.tenants.values():
            completed += int(row["completed"])
            offered += int(row["offered"])
            admitted += int(row["admitted"])
            p99 = max(p99, float(row["latency_ns"]["p99"]))
            oram_real += int(row["oram_emissions"]["real"])
            oram_total += int(row["oram_emissions"]["real"]
                              + row["oram_emissions"]["dummy"])
        injected += _injected(result.fault_summary)
    for row in channel_rows:
        requests = int(row["reads"] + row["writes"])
        dram_requests += requests
        row_hits += row["row_hit_rate"] * requests
    return {
        "cpu.accesses": cpu_accesses,
        "dram.requests": dram_requests,
        "dram.row_hit_rate": row_hits / dram_requests if dram_requests else 0.0,
        "oram.accesses": oram_total,
        "oram.real_frac": oram_real / oram_total if oram_total else 0.0,
        "scenarios.completed": completed,
        "scenarios.p99_ns": p99,
        "scenarios.rejected_frac": (
            (offered - admitted) / offered if offered else 0.0),
        "faults.injected": injected,
        "analysis.points": int(extra.get("analysis.points", 0)),
        "analysis.paper_fig9_err": extra.get("analysis.paper_fig9_err", 0.0),
        "crypto.functional_ops": int(extra.get("crypto.functional_ops", 0)),
    }
