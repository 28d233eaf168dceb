"""Seeded, resumable chaos campaigns: CampaignSpec -> FaultPlan stream.

A campaign turns the fault-plan DSL into a *measured resilience
surface*: a :class:`CampaignSpec` holds fault-plan rule docs per site
class (link corrupt/drop/delay, DRAM bit-flips, delegator stall/crash)
whose fields in :data:`VARYING` may hold an :class:`Intensity`, and
deterministically materializes one :class:`~repro.faults.plan.FaultPlan`
per campaign index through :meth:`FaultPlan.from_json_dict`.  Each
plan's seed is ``derive_seed(spec.seed, index)`` -- the same
splitmix-style mixing discipline as ``repro.scenarios.arrivals`` uses
per tenant -- so campaign points never perturb each other: adding
point 7 cannot move point 3's fault schedule, and a resumed or
distributed drain sees byte-identical plans.

:class:`FaultPoint` is the sweep axis: one (campaign index, scheme,
workload) cell, the ``chaos`` kind of the sweep point protocol, so
campaign grids drain through ``run_sweep`` and the lease-arbitrated
work queue unchanged.  Its ``run`` executes the invariant harness as
the oracle, then the multi-tenant scenario under the armed plan, and
scores it with :mod:`repro.analysis.availability`; the stored payload
embeds all three verdicts.

Intensity distributions (:class:`Intensity`):

* ``fixed``   -- every point gets ``lo``;
* ``ramp``    -- point ``i`` of ``n`` gets ``lo + (hi-lo) * i/(n-1)``
  (the classic degradation ramp);
* ``uniform`` -- an independent draw from ``[lo, hi]`` per point, via
  ``site_rng(spec.seed, "campaign.<site>", str(index))`` -- each point
  owns its stream, so the draw for point ``i`` is a function of
  ``(spec.seed, site, i)`` alone (resumability).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.sweep import SweepPoint, content_key
from repro.core.schemes import make_config
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    RecoveryParams,
    site_rng,
)
from repro.scenarios.arrivals import derive_seed
from repro.trace.benchmarks import benchmark_by_code

#: Intensity distribution modes.
INTENSITY_MODES = ("fixed", "ramp", "uniform")

#: The only rule fields that take an :class:`Intensity`, with the site
#: of their ``uniform`` draws (``{i}``: the rule's place in its section).
VARYING: Dict[str, Dict[str, str]] = {
    "link": {"rate": "link{i}"},
    "dram": {"rate": "dram{i}"},
    "delegator": {"start_ns": "sd{i}.start", "duration_ns": "sd{i}.dur"},
}

#: Where a campaign rule's default differs from its plan rule's: a link
#: rule hits the downlinks, a DRAM rule every channel.
RULE_DEFAULTS: Dict[str, Dict[str, object]] = {
    "link": {"link": "bob*.down"},
    "dram": {"channel": "ch*"},
    "delegator": {},
}

#: One campaign rule: sorted ``(field, value)`` pairs of a plan rule doc.
Rule = Tuple[Tuple[str, object], ...]


class CampaignError(ValueError):
    """Invalid campaign spec (bad JSON shape, value, or reference)."""


def _reject_unknown(doc: Dict[str, object], allowed: Iterable[str],
                    what: str) -> None:
    if not isinstance(doc, dict):
        raise CampaignError(f"{what} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise CampaignError(
            f"unknown {what} keys: {', '.join(sorted(unknown))}"
        )


# ---------------------------------------------------------------------------
# Intensity distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Intensity:
    """One scalar knob's distribution across campaign points."""

    lo: float
    hi: Optional[float] = None
    mode: str = "fixed"

    def __post_init__(self) -> None:
        if self.hi is None:
            object.__setattr__(self, "hi", self.lo)
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.mode not in INTENSITY_MODES:
            raise CampaignError(
                f"unknown intensity mode {self.mode!r} "
                f"(valid: {', '.join(INTENSITY_MODES)})"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise CampaignError("intensity bounds must be finite")
        if self.lo > self.hi:
            raise CampaignError(
                f"intensity lo {self.lo:g} must be <= hi {self.hi:g}"
            )

    def value(self, spec_seed: int, site: str, index: int,
              points: int) -> float:
        if self.mode == "fixed" or self.lo == self.hi:
            return self.lo
        if self.mode == "ramp":
            if points <= 1:
                return self.hi
            return self.lo + (self.hi - self.lo) * index / (points - 1)
        rng = site_rng(spec_seed, f"campaign.{site}", str(index))
        return rng.uniform(self.lo, self.hi)

    def to_json_dict(self) -> Dict[str, object]:
        return {"lo": self.lo, "hi": self.hi, "mode": self.mode}

    @classmethod
    def from_json(cls, doc, what: str) -> "Intensity":
        """A number (fixed), a ``{lo, hi, mode}`` object, or an
        :class:`Intensity` already."""
        if isinstance(doc, cls):
            return doc
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            return cls(lo=float(doc))
        _reject_unknown(doc, ("lo", "hi", "mode"), what)
        if "lo" not in doc:
            raise CampaignError(f"{what} needs at least 'lo'")
        return cls(lo=doc["lo"], hi=doc.get("hi"),
                   mode=doc.get("mode", "ramp" if "hi" in doc else "fixed"))


# ---------------------------------------------------------------------------
# Campaign rules
# ---------------------------------------------------------------------------


def _rule(section: str, rule) -> Rule:
    """A campaign rule (a plan rule doc, or its pairs) in stored form:
    the campaign defaults under the given fields, each varying field an
    :class:`Intensity`, list values as tuples.  The rule is parsed at
    both ends of its intensities, so a bad one fails at load, not at
    drain time."""
    if not isinstance(rule, (dict, tuple)):
        raise CampaignError(f"each {section} rule must be a JSON object")
    doc = dict(RULE_DEFAULTS[section], **dict(rule))
    varying = VARYING[section]
    for name, value in doc.items():
        if name in varying:
            doc[name] = Intensity.from_json(value, f"{section} {name}")
        elif isinstance(value, (dict, Intensity)):
            raise CampaignError(
                f"{section} rule field {name!r} cannot vary across "
                f"points (only {', '.join(varying)} can)"
            )
        elif isinstance(value, list):
            doc[name] = tuple(value)
    rule = tuple(sorted(doc.items()))
    for end in ("lo", "hi"):
        FaultPlan.from_json_dict({section: [_plan_rule(
            section, 0, rule, lambda intensity, _site: getattr(intensity, end)
        )]})
    return rule


def _plan_rule(section: str, i: int, rule: Rule,
               value: Callable[[Intensity, str], float]) -> Dict[str, object]:
    """The plan rule doc of campaign rule ``i``: each :class:`Intensity`
    replaced by ``value(intensity, site)``.  A crash keeps no duration
    (its plan rule's is 0)."""
    doc = {
        name: (value(v, VARYING[section][name].format(i=i))
               if isinstance(v, Intensity) else v)
        for name, v in rule
    }
    if doc.get("kind") == "crash":
        doc.pop("duration_ns", None)
    return doc


def _rule_json(rule: Rule) -> Dict[str, object]:
    return {name: v.to_json_dict() if isinstance(v, Intensity) else v
            for name, v in rule}


# ---------------------------------------------------------------------------
# The campaign spec
# ---------------------------------------------------------------------------


def _pairs(doc: Dict[str, object],
           what: str) -> Tuple[Tuple[str, object], ...]:
    if not isinstance(doc, dict):
        raise CampaignError(f"{what} must be a JSON object of overrides")
    return tuple(sorted(doc.items()))


@dataclass(frozen=True)
class CampaignSpec:
    """A parameterized chaos campaign (the ``doram chaos`` input)."""

    name: str
    points: int
    seed: int = 1
    schemes: Tuple[str, ...] = ("doram",)
    #: Base scenario overrides applied to every cell (dotted
    #: ``apply_overrides`` keys), then one workload override-set per
    #: workload axis value.
    scenario: Tuple[Tuple[str, object], ...] = ()
    workloads: Tuple[Tuple[Tuple[str, object], ...], ...] = ((),)
    #: Fault-plan rule docs per section, stored as :data:`Rule` pairs.
    link: Tuple[Rule, ...] = ()
    dram: Tuple[Rule, ...] = ()
    delegator: Tuple[Rule, ...] = ()
    recovery: RecoveryParams = field(default_factory=RecoveryParams)
    #: Availability SLO deadline (request sojourn bound), ns.
    slo_ns: float = 2000.0
    #: Invariant-harness (oracle) knobs.
    benchmark: str = "libq"
    trace_length: int = 300
    functional_ops: int = 120

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(
            self, "scenario", tuple(sorted(tuple(self.scenario)))
        )
        object.__setattr__(
            self, "workloads",
            tuple(tuple(sorted(tuple(wl))) for wl in self.workloads)
            or ((),),
        )
        for section in VARYING:
            object.__setattr__(self, section, tuple(
                _rule(section, r) for r in getattr(self, section)
            ))
        if not self.name or not isinstance(self.name, str):
            raise CampaignError("campaign name must be a non-empty string")
        if self.points < 1:
            raise CampaignError(
                f"campaign needs points >= 1 (got {self.points})"
            )
        if not self.schemes:
            raise CampaignError("campaign needs at least one scheme")
        if self.slo_ns <= 0:
            raise CampaignError("slo_ns must be > 0")
        if self.trace_length < 1 or self.functional_ops < 1:
            raise CampaignError(
                "trace_length and functional_ops must be >= 1"
            )
        # Every cell's oracle runs the benchmark under its scheme.
        try:
            benchmark_by_code(self.benchmark)
            for scheme in self.schemes:
                make_config(scheme, self.benchmark, self.trace_length)
        except (AttributeError, KeyError, ValueError) as exc:
            raise CampaignError(
                f"campaign {self.name!r}: {exc.args[0]}"
            ) from None
        # Every workload must resolve to a valid ScenarioConfig, and
        # every index to a valid FaultPlan: campaign loading is the
        # one-line-exit-2 boundary, the drain loop never validates.
        for wl in self.workloads:
            self.scenario_config(wl)
        for index in range(self.points):
            self.plan_for(index)

    # -- materialization ----------------------------------------------
    def plan_for(self, index: int) -> FaultPlan:
        """The deterministic FaultPlan of campaign point ``index``."""
        if not 0 <= index < self.points:
            raise CampaignError(
                f"point index {index} out of range [0, {self.points})"
            )
        doc: Dict[str, object] = {
            "seed": derive_seed(self.seed, index),
            "recovery": vars(self.recovery),
        }
        for section in VARYING:
            doc[section] = [
                _plan_rule(
                    section, i, rule,
                    lambda intensity, site: intensity.value(
                        self.seed, site, index, self.points),
                )
                for i, rule in enumerate(getattr(self, section))
            ]
        try:
            return FaultPlan.from_json_dict(doc)
        except FaultPlanError as exc:
            raise CampaignError(
                f"campaign {self.name!r} point {index} materializes an "
                f"invalid plan: {exc}"
            ) from exc

    def scenario_config(self, workload: Tuple[Tuple[str, object], ...]):
        """The resolved ScenarioConfig of one workload cell."""
        from repro.scenarios.config import ScenarioConfig, apply_overrides

        overrides = dict(self.scenario)
        overrides.update(dict(workload))
        try:
            return apply_overrides(ScenarioConfig(), overrides)
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"campaign {self.name!r}: bad scenario overrides: {exc}"
            ) from exc

    def grid(self) -> List["FaultPoint"]:
        """Every cell: fault intensity x scheme x workload."""
        return [
            FaultPoint(spec=self, index=index, scheme=scheme,
                       workload_id=wl)
            for index in range(self.points)
            for scheme in self.schemes
            for wl in range(len(self.workloads))
        ]

    def describe(self) -> List[str]:
        """Resolved campaign (``doram chaos --dry-run``)."""
        lines = [
            f"campaign {self.name!r}: {self.points} points x "
            f"{len(self.schemes)} schemes x {len(self.workloads)} "
            f"workloads = {self.points * len(self.schemes) * len(self.workloads)} "
            f"cells (seed {self.seed}, slo {self.slo_ns:g} ns)",
        ]
        for wl, overrides in enumerate(self.workloads):
            label = ", ".join(f"{k}={v}" for k, v in overrides) or "(base)"
            lines.append(f"  workload {wl}: {label}")
        for index in range(self.points):
            plan = self.plan_for(index)
            rules = [
                rule.describe()
                for rule in plan.link + plan.dram + plan.delegator
            ]
            lines.append(
                f"  point {index} (plan seed {plan.seed}): "
                + ("; ".join(rules) if rules else "no fault rules")
            )
        return lines

    # -- (de)serialization --------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "points": self.points,
            "seed": self.seed,
            "schemes": list(self.schemes),
            "scenario": dict(self.scenario),
            "workloads": [dict(wl) for wl in self.workloads],
            "link": [_rule_json(r) for r in self.link],
            "dram": [_rule_json(r) for r in self.dram],
            "delegator": [_rule_json(r) for r in self.delegator],
            "recovery": asdict(self.recovery),
            "slo_ns": self.slo_ns,
            "benchmark": self.benchmark,
            "trace_length": self.trace_length,
            "functional_ops": self.functional_ops,
        }

    _FIELDS = ("name", "points", "seed", "schemes", "scenario",
               "workloads", "link", "dram", "delegator", "recovery",
               "slo_ns", "benchmark", "trace_length", "functional_ops")

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "CampaignSpec":
        _reject_unknown(doc, cls._FIELDS, "campaign spec")
        if "name" not in doc or "points" not in doc:
            raise CampaignError("campaign spec needs 'name' and 'points'")
        workloads = doc.get("workloads", [{}])
        if not isinstance(workloads, list):
            raise CampaignError("'workloads' must be a list of objects")
        try:
            recovery = RecoveryParams(**doc.get("recovery", {}))
        except (TypeError, FaultPlanError) as exc:
            raise CampaignError(f"bad recovery params: {exc}") from exc
        try:
            return cls(
                name=doc["name"],
                points=int(doc["points"]),
                seed=int(doc.get("seed", 1)),
                schemes=tuple(doc.get("schemes", ("doram",))),
                scenario=_pairs(doc.get("scenario", {}), "'scenario'"),
                workloads=tuple(
                    _pairs(wl, f"workload {i}")
                    for i, wl in enumerate(workloads)
                ),
                link=tuple(doc.get("link", ())),
                dram=tuple(doc.get("dram", ())),
                delegator=tuple(doc.get("delegator", ())),
                recovery=recovery,
                slo_ns=float(doc.get("slo_ns", 2000.0)),
                benchmark=doc.get("benchmark", "libq"),
                trace_length=int(doc.get("trace_length", 300)),
                functional_ops=int(doc.get("functional_ops", 120)),
            )
        except (TypeError, FaultPlanError) as exc:
            raise CampaignError(f"malformed campaign spec: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        try:
            with open(path) as fp:
                doc = json.load(fp)
        except OSError as exc:
            raise CampaignError(
                f"cannot read campaign spec {path!r}: "
                f"{exc.strerror or exc}"
            ) from exc
        except ValueError as exc:
            raise CampaignError(
                f"campaign spec {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_json_dict(doc)


# ---------------------------------------------------------------------------
# The sweep axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPoint(SweepPoint):
    """One campaign cell (kind ``chaos``): oracle, scenario and scorer."""

    kind = "chaos"

    spec: CampaignSpec
    index: int
    scheme: str
    workload_id: int = 0

    @property
    def workload(self) -> Tuple[Tuple[str, object], ...]:
        return self.spec.workloads[self.workload_id]

    @property
    def label(self) -> str:
        return (f"chaos[{self.spec.name}#{self.index} "
                f"{self.scheme} w{self.workload_id}]")

    def key(self, with_digest: bool = False) -> str:
        """Content address over everything the payload depends on."""
        spec = self.spec
        return content_key({"chaos": {
            "campaign": spec.name,
            "plan": spec.plan_for(self.index).to_json_dict(),
            "scenario": spec.scenario_config(self.workload).to_json_dict(),
            "scheme": self.scheme,
            "benchmark": spec.benchmark,
            "trace_length": spec.trace_length,
            "functional_ops": spec.functional_ops,
            "slo_ns": spec.slo_ns,
        }}, with_digest)

    def run(self, tracer) -> Dict[str, object]:
        from repro.analysis.availability import score_scenario
        from repro.faults.inject import FaultController
        from repro.faults.invariants import check_fault_invariants
        from repro.scenarios.service import run_scenario

        spec = self.spec
        plan = spec.plan_for(self.index)
        invariants = check_fault_invariants(
            plan, scheme=self.scheme, benchmark=spec.benchmark,
            trace_length=spec.trace_length,
            functional_ops=spec.functional_ops,
        )
        result = run_scenario(
            spec.scenario_config(self.workload), tracer=tracer,
            faults=FaultController(plan),
        )
        availability = score_scenario(result, plan, spec.slo_ns)
        return {
            "plan": plan.to_json_dict(),
            "invariants": {
                "ok": invariants.ok,
                "violations": list(invariants.violations),
                "end_time": invariants.end_time,
                "events": invariants.events,
                "durability": dict(invariants.durability),
            },
            "result": result.to_json_dict(),
            "fault_summary": result.fault_summary.get("faults", {}),
            "availability": availability.to_json_dict(),
            "report_digest": result.report_digest(),
        }

    # -- work-queue manifests -----------------------------------------
    def to_manifest(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "spec": self.spec.to_json_dict(),
            "index": self.index,
            "scheme": self.scheme,
            "workload_id": self.workload_id,
        }

    @classmethod
    def from_manifest(cls, doc: Dict[str, object]) -> "FaultPoint":
        return cls(
            spec=CampaignSpec.from_json_dict(doc["spec"]),
            index=int(doc["index"]),
            scheme=doc["scheme"],
            workload_id=int(doc.get("workload_id", 0)),
        )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def chaos_rows(
    payloads: Dict[FaultPoint, Dict[str, object]]
) -> List[Dict[str, object]]:
    """Flatten drained payloads into report rows, grid order."""
    rows = []
    for point in sorted(
        payloads,
        key=lambda p: (p.index, p.scheme, p.workload_id),
    ):
        payload = payloads[point]
        avail = payload["availability"]
        rows.append({
            "campaign": point.spec.name,
            "point": point.index,
            "scheme": point.scheme,
            "workload": point.workload_id,
            "plan_seed": payload["plan"]["seed"],
            "offered": avail["offered"],
            "completed": avail["completed"],
            "availability": avail["availability"],
            "goodput_rps": avail["goodput_rps"],
            "slo_goodput_rps": avail["slo_goodput_rps"],
            "recovery_p99_ns": avail["recovery_ns"].get("p99"),
            "mttr_ns": avail["mttr_ns"],
            "invariants_ok": bool(payload["invariants"]["ok"]),
            "violations": len(payload["invariants"]["violations"]),
        })
    return rows


def bench_records(rows: List[Dict[str, object]], label: str,
                  wall_s: float) -> List[Dict[str, object]]:
    """BENCH_chaos.json rows (:mod:`repro.analysis.trajectory` schema).

    One record per campaign cell; ``recovery_p99_ns`` uses ``-1.0`` as
    the no-recovery-measured sentinel (the schema forbids null values).
    """
    return [
        {
            "label": label,
            "workload": "chaos_point",
            "wall_s": round(wall_s, 3),
            "config": (f"{row['campaign']}#{row['point']}:"
                       f"{row['scheme']}:w{row['workload']}"),
            "campaign": row["campaign"],
            "availability": round(row["availability"], 6),
            "goodput_rps": round(row["goodput_rps"], 3),
            "slo_goodput_rps": round(row["slo_goodput_rps"], 3),
            "recovery_p99_ns": (
                round(row["recovery_p99_ns"], 3)
                if row["recovery_p99_ns"] is not None else -1.0
            ),
            "invariants_ok": bool(row["invariants_ok"]),
        }
        for row in rows
    ]


def render_markdown(rows: List[Dict[str, object]]) -> str:
    """Availability/goodput-under-faults curves as a markdown table."""

    def _ns(value) -> str:
        return f"{value:,.0f}" if value is not None else "-"

    lines = [
        "| point | scheme | workload | availability | goodput (rps) "
        "| SLO goodput (rps) | recovery p99 (ns) | MTTR (ns) "
        "| invariants |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['point']} | {row['scheme']} | w{row['workload']} "
            f"| {row['availability']:.4f} "
            f"| {row['goodput_rps']:,.0f} "
            f"| {row['slo_goodput_rps']:,.0f} "
            f"| {_ns(row['recovery_p99_ns'])} "
            f"| {_ns(row['mttr_ns'])} "
            f"| {'OK' if row['invariants_ok'] else 'FAILED'} |"
        )
    return "\n".join(lines)
