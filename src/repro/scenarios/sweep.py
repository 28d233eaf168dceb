"""Scenario sweep points: tenant-count x arrival-rate grids.

A :class:`ScenarioPoint` (kind ``"scenario"``) is the service layer's
point kind of the sweep point protocol
(:class:`repro.analysis.sweep.SweepPoint`): it content-addresses itself
over the *resolved* :class:`~repro.scenarios.config.ScenarioConfig` and
runs :func:`~repro.scenarios.service.run_scenario`, so its store entries
share the run points' machinery -- payload envelope, atomic writes,
resume, queue-drained parallel workers, per-point timeouts -- without
the analysis layer importing the scenario layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    content_key,
    pairs_from_json,
)
from repro.scenarios.config import ScenarioConfig, apply_overrides
from repro.scenarios.service import ScenarioResult, run_scenario


@dataclass(frozen=True)
class ScenarioPoint(SweepPoint):
    """One independent scenario run in a sweep.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied
    to the default :class:`ScenarioConfig`; ``arrival.<field>`` dotted
    keys reach the nested spec.  Values must be picklable and JSON-safe.
    """

    kind = "scenario"

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
        """Content address over the resolved config."""
        return content_key(
            {"scenario": self.resolved_config().to_json_dict()}, with_digest
        )

    def run(self, tracer) -> Dict[str, object]:
        result = run_scenario(self.resolved_config(), tracer=tracer)
        return {
            "result": result.to_json_dict(),
            "report_digest": result.report_digest(),
        }

    def to_manifest(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "overrides": [list(kv) for kv in self.overrides],
        }

    @classmethod
    def from_manifest(cls, doc: Dict[str, object]) -> "ScenarioPoint":
        return cls(overrides=pairs_from_json(doc["overrides"]))


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
