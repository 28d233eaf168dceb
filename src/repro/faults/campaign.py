"""Seeded, resumable chaos campaigns: CampaignSpec -> FaultPlan stream.

A campaign turns the PR 5 fault DSL into a *measured resilience
surface* (ROADMAP item 4): a :class:`CampaignSpec` names parameterized
fault-intensity distributions per site class (link corrupt/drop/delay,
DRAM bit-flips, delegator stall/crash), and deterministically
materializes one :class:`~repro.faults.plan.FaultPlan` per campaign
index.  Each plan's seed is ``derive_seed(spec.seed, index)`` -- the
same splitmix-style mixing discipline as ``repro.scenarios.arrivals``
uses per tenant -- so campaign points never perturb each other: adding
point 7 cannot move point 3's fault schedule, and a resumed or
distributed drain sees byte-identical plans.

:class:`FaultPoint` is the sweep axis: one (campaign index, scheme,
workload) cell, duck-typed to the ``repro.analysis.sweep`` point
protocol (``key``/``label``/``execute``), so campaign grids drain
through ``run_sweep`` and the lease-arbitrated work queue unchanged.
``execute`` runs the PR 5 invariant harness as the oracle, then the
multi-tenant scenario under the armed plan, and scores it with
:mod:`repro.analysis.availability`; the stored payload embeds all
three verdicts.

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

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.sweep import STORE_SCHEMA_VERSION, canonical_json
from repro.faults.plan import (
    DelegatorFault,
    DramFault,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    RecoveryParams,
    site_rng,
)
from repro.scenarios.arrivals import derive_seed

#: Intensity distribution modes.
INTENSITY_MODES = ("fixed", "ramp", "uniform")


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
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            return cls(lo=float(doc))
        _reject_unknown(doc, ("lo", "hi", "mode"), what)
        if "lo" not in doc:
            raise CampaignError(f"{what} needs at least 'lo'")
        return cls(lo=doc["lo"], hi=doc.get("hi"),
                   mode=doc.get("mode", "ramp" if "hi" in doc else "fixed"))


def _intensity(value) -> Intensity:
    if isinstance(value, Intensity):
        return value
    return Intensity.from_json(value, "intensity")


# ---------------------------------------------------------------------------
# Per-site-class fault specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkSpec:
    """A link fault family whose rate varies across the campaign."""

    kind: str = "corrupt"
    link: str = "bob*.down"
    tag: str = "*"
    rate: Intensity = field(default_factory=lambda: Intensity(0.0))
    delay_ns: float = 0.0
    start_ns: float = 0.0
    stop_ns: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _intensity(self.rate))
        # Materialize the extreme points now so a bad spec fails at
        # load, not at drain time (rate bounds, kind, site grammar).
        for probe in (self.rate.lo, self.rate.hi):
            self.materialize(probe)

    def materialize(self, rate: float) -> LinkFault:
        return LinkFault(
            kind=self.kind, link=self.link, tag=self.tag, rate=rate,
            delay_ns=self.delay_ns, start_ns=self.start_ns,
            stop_ns=self.stop_ns,
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "link": self.link, "tag": self.tag,
            "rate": self.rate.to_json_dict(), "delay_ns": self.delay_ns,
            "start_ns": self.start_ns, "stop_ns": self.stop_ns,
        }

    _FIELDS = ("kind", "link", "tag", "rate", "delay_ns", "start_ns",
               "stop_ns")

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "LinkSpec":
        _reject_unknown(doc, cls._FIELDS, "link spec")
        kw = dict(doc)
        if "rate" in kw:
            kw["rate"] = Intensity.from_json(kw["rate"], "link rate")
        return cls(**kw)


@dataclass(frozen=True)
class DramSpec:
    """A DRAM bit-flip family whose rate varies across the campaign."""

    channel: str = "ch*"
    rate: Intensity = field(default_factory=lambda: Intensity(0.0))
    start_ns: float = 0.0
    stop_ns: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _intensity(self.rate))
        for probe in (self.rate.lo, self.rate.hi):
            self.materialize(probe)

    def materialize(self, rate: float) -> DramFault:
        return DramFault(
            channel=self.channel, rate=rate, start_ns=self.start_ns,
            stop_ns=self.stop_ns,
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "channel": self.channel, "rate": self.rate.to_json_dict(),
            "start_ns": self.start_ns, "stop_ns": self.stop_ns,
        }

    _FIELDS = ("channel", "rate", "start_ns", "stop_ns")

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "DramSpec":
        _reject_unknown(doc, cls._FIELDS, "dram spec")
        kw = dict(doc)
        if "rate" in kw:
            kw["rate"] = Intensity.from_json(kw["rate"], "dram rate")
        return cls(**kw)


@dataclass(frozen=True)
class DelegatorSpec:
    """A delegator stall/crash whose onset (and length) vary."""

    kind: str = "stall"
    start_ns: Intensity = field(default_factory=lambda: Intensity(0.0))
    duration_ns: Intensity = field(default_factory=lambda: Intensity(0.0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_ns", _intensity(self.start_ns))
        object.__setattr__(self, "duration_ns",
                           _intensity(self.duration_ns))
        for start, duration in ((self.start_ns.lo, self.duration_ns.lo),
                                (self.start_ns.hi, self.duration_ns.hi)):
            self.materialize(start, duration)

    def materialize(self, start_ns: float,
                    duration_ns: float) -> DelegatorFault:
        return DelegatorFault(
            kind=self.kind, start_ns=start_ns,
            duration_ns=duration_ns if self.kind == "stall" else 0.0,
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "start_ns": self.start_ns.to_json_dict(),
            "duration_ns": self.duration_ns.to_json_dict(),
        }

    _FIELDS = ("kind", "start_ns", "duration_ns")

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "DelegatorSpec":
        _reject_unknown(doc, cls._FIELDS, "delegator spec")
        kw = dict(doc)
        for key in ("start_ns", "duration_ns"):
            if key in kw:
                kw[key] = Intensity.from_json(kw[key], f"delegator {key}")
        return cls(**kw)


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
    link: Tuple[LinkSpec, ...] = ()
    dram: Tuple[DramSpec, ...] = ()
    delegator: Tuple[DelegatorSpec, ...] = ()
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
        object.__setattr__(self, "link", tuple(self.link))
        object.__setattr__(self, "dram", tuple(self.dram))
        object.__setattr__(self, "delegator", tuple(self.delegator))
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
        if sum(1 for s in self.delegator if s.kind == "crash") > 1:
            raise CampaignError("at most one delegator crash spec")
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
        seed = self.seed
        try:
            return FaultPlan(
                seed=derive_seed(self.seed, index),
                link=tuple(
                    s.materialize(
                        s.rate.value(seed, f"link{i}", index, self.points)
                    )
                    for i, s in enumerate(self.link)
                ),
                dram=tuple(
                    s.materialize(
                        s.rate.value(seed, f"dram{i}", index, self.points)
                    )
                    for i, s in enumerate(self.dram)
                ),
                delegator=tuple(
                    s.materialize(
                        s.start_ns.value(
                            seed, f"sd{i}.start", index, self.points
                        ),
                        s.duration_ns.value(
                            seed, f"sd{i}.dur", index, self.points
                        ),
                    )
                    for i, s in enumerate(self.delegator)
                ),
                recovery=self.recovery,
            )
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
            "link": [s.to_json_dict() for s in self.link],
            "dram": [s.to_json_dict() for s in self.dram],
            "delegator": [s.to_json_dict() for s in self.delegator],
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
                link=tuple(
                    LinkSpec.from_json_dict(s)
                    for s in doc.get("link", ())
                ),
                dram=tuple(
                    DramSpec.from_json_dict(s)
                    for s in doc.get("dram", ())
                ),
                delegator=tuple(
                    DelegatorSpec.from_json_dict(s)
                    for s in doc.get("delegator", ())
                ),
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
class FaultPoint:
    """One campaign cell, duck-typed to the sweep point protocol."""

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
        doc = {
            "schema": STORE_SCHEMA_VERSION,
            "chaos": {
                "campaign": spec.name,
                "plan": spec.plan_for(self.index).to_json_dict(),
                "scenario": spec.scenario_config(
                    self.workload
                ).to_json_dict(),
                "scheme": self.scheme,
                "benchmark": spec.benchmark,
                "trace_length": spec.trace_length,
                "functional_ops": spec.functional_ops,
                "slo_ns": spec.slo_ns,
            },
            "with_digest": bool(with_digest),
        }
        return hashlib.sha256(
            canonical_json(doc).encode("utf-8")
        ).hexdigest()

    def execute(self, with_digest: bool = False) -> Dict[str, object]:
        """Oracle + scenario + scorer; the stored campaign payload."""
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

        tracer = None
        if with_digest:
            from repro.obs.tracer import Tracer

            tracer = Tracer()
        config = spec.scenario_config(self.workload)
        result = run_scenario(
            config, tracer=tracer, faults=FaultController(plan)
        )
        availability = score_scenario(result, plan, spec.slo_ns)

        payload: Dict[str, object] = {
            "schema": STORE_SCHEMA_VERSION,
            "point": self.to_manifest(),
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
        if tracer is not None:
            from repro.obs.export import trace_digest

            payload["trace_digest"] = trace_digest(tracer.events)
        return payload

    # -- work-queue manifests -----------------------------------------
    def to_manifest(self) -> Dict[str, object]:
        return {
            "kind": "chaos",
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
