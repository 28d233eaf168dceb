"""Scenario sweep points: tenant-count x arrival-rate grids.

A :class:`ScenarioPoint` plugs the service layer into the sweep runner
(:func:`repro.analysis.sweep.run_sweep`): it is hashable,
content-addresses itself over the *resolved*
:class:`~repro.scenarios.config.ScenarioConfig`, carries its own
``execute`` method, which the generalized ``execute_point`` dispatches
to, and round-trips through a work-queue manifest (kind
``"scenario"``).  Store entries therefore share the RunPoint machinery
-- atomic writes, resume, queue-drained parallel workers, per-point
timeouts -- without the analysis layer importing the scenario layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.sweep import (
    STORE_SCHEMA_VERSION,
    SweepResult,
    canonical_json,
)
from repro.scenarios.config import ScenarioConfig, apply_overrides
from repro.scenarios.service import ScenarioResult, run_scenario


@dataclass(frozen=True)
class ScenarioPoint:
    """One independent scenario run in a sweep.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied
    to the default :class:`ScenarioConfig`; ``arrival.<field>`` dotted
    keys reach the nested spec.  Values must be picklable and JSON-safe.
    """

    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", tuple(sorted(tuple(self.overrides)))
        )

    @property
    def label(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.overrides)
        return f"scenario[{extra}]" if extra else "scenario[default]"

    def resolved_config(self) -> ScenarioConfig:
        """The full :class:`ScenarioConfig` this point runs."""
        return apply_overrides(ScenarioConfig(), dict(self.overrides))

    def key(self, with_digest: bool = False) -> str:
        """Content address: sha256 of the resolved config + schema."""
        doc = {
            "schema": STORE_SCHEMA_VERSION,
            "scenario": self.resolved_config().to_json_dict(),
            "with_digest": bool(with_digest),
        }
        return hashlib.sha256(
            canonical_json(doc).encode("utf-8")
        ).hexdigest()

    def execute(self, with_digest: bool = False) -> Dict[str, object]:
        """Run the scenario and return its serialized store payload.

        The sweep runner's ``execute_point`` calls this (instead of
        ``_simulate_point``) for any point that provides it; the payload
        mirrors the RunPoint shape so store tooling stays generic.
        """
        tracer = None
        if with_digest:
            from repro.obs.tracer import Tracer

            tracer = Tracer()
        result = run_scenario(self.resolved_config(), tracer=tracer)
        payload: Dict[str, object] = {
            "schema": STORE_SCHEMA_VERSION,
            "point": self.to_manifest(),
            "result": result.to_json_dict(),
            "report_digest": result.report_digest(),
        }
        if tracer is not None:
            from repro.obs.export import trace_digest

            payload["trace_digest"] = trace_digest(tracer.events)
        return payload

    # -- work-queue manifests -----------------------------------------
    def to_manifest(self) -> Dict[str, object]:
        """The ``"point"`` doc every payload of this point carries."""
        return {
            "kind": "scenario",
            "overrides": [list(kv) for kv in self.overrides],
        }

    @classmethod
    def from_manifest(cls, doc: Dict[str, object]) -> "ScenarioPoint":
        return cls(overrides=tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in doc["overrides"]
        ))


def scenario_grid(
    tenant_counts: Sequence[int],
    rates_rps: Sequence[float],
    base_overrides: Mapping[str, object] = (),
) -> List[ScenarioPoint]:
    """The SLO-sweep grid: one point per tenants x arrival-rate cell."""
    base = tuple(dict(base_overrides).items())
    return [
        ScenarioPoint(overrides=base + (
            ("num_tenants", int(tenants)),
            ("arrival.rate_rps", float(rate)),
        ))
        for tenants in tenant_counts
        for rate in rates_rps
    ]


def slo_rows(sweep_result: SweepResult) -> List[Dict[str, object]]:
    """Flatten sweep payloads into table rows (one per grid cell).

    Rows carry the knobs the grid varied plus the aggregate SLO numbers
    -- what EXPERIMENTS.md and the ``doram serve --sweep`` table print.
    """
    rows: List[Dict[str, object]] = []
    for point, payload in sweep_result.payloads.items():
        result = ScenarioResult.from_json_dict(payload["result"])
        config = result.config
        rows.append({
            "tenants": config.num_tenants,
            "arrival": config.arrival.kind,
            "rate_rps": config.arrival.rate_rps,
            "offered": result.total("offered"),
            "admitted": result.total("admitted"),
            "completed": result.total("completed"),
            "goodput_rps": result.goodput_rps(),
            "worst_p50_ns": result.worst("p50"),
            "worst_p99_ns": result.worst("p99"),
            "worst_p999_ns": result.worst("p999"),
            "report_digest": payload.get("report_digest", ""),
            "label": point.label,
        })
    rows.sort(key=lambda r: (r["tenants"], r["rate_rps"]))
    return rows
