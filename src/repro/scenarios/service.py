"""Scenario assembly and execution: N tenants on the D-ORAM fabric.

``run_scenario(ScenarioConfig)`` wires the multi-tenant service machine
-- the BOB fabric via :func:`repro.core.system.build_bob_fabric`, one
:class:`~repro.core.delegator.SecureDelegator` per secure channel, one
ORAM tree + fixed-rate frontend + open-loop :class:`~repro.scenarios.
tenant.TenantSource` per tenant, and optionally the live admission
governor -- runs it open-loop to the horizon (plus the drain epilogue),
and returns a :class:`ScenarioResult` with per-tenant SLO metrics.

Determinism contract (DESIGN.md §11): the result's
:meth:`ScenarioResult.to_json_dict` payload, its :meth:`ScenarioResult.
report_digest`, and the event-trace digest are all bit-identical across
runs and periodic modes (eager/lazy) for the same config -- pinned by
``tests/scenarios`` and the census-invariance suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.metrics import SLO_QUANTILES, latency_quantiles_ns
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.core.frontend import DelegatorBackend, OnChipBackend, OramFrontend
from repro.core.recovery import (
    BobChannelSink,
    FailoverBackend,
    SecureLinkSession,
)
from repro.core.system import build_bob_fabric
from repro.dram.address_mapping import DeviceGeometry
from repro.dram.commands import TrafficClass
from repro.dram.scheduler import SharePolicy
from repro.obs.snapshot import StatsSampler
from repro.oram.controller import OramController
from repro.oram.layout import OramLayout
from repro.scenarios.admission import AdmissionGovernor
from repro.scenarios.arrivals import derive_seed, make_stream
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.tenant import TenantSource
from repro.sim.engine import Engine, TICKS_PER_NS, ns

#: Bumped when the report payload changes shape (mirrors the sweep
#: store's schema discipline).
SCENARIO_REPORT_VERSION = 1

#: App-id base for the per-channel delegators (distinct from tenant ids,
#: which start at 0 -- there are no NS background apps in a scenario).
_SD_APP_ID_BASE = 1000


def _canonical_json(payload: object) -> str:
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class ScenarioResult:
    """Everything measured in one scenario run (the SLO report)."""

    config: ScenarioConfig
    #: Per-tenant report rows keyed by stringified tenant id.
    tenants: Dict[str, Dict[str, object]]
    #: Per-sub-channel summary rows (same shape as ``SimResult.channels``).
    channels: Dict[str, Dict[str, float]]
    #: Admission-governor decision log and shed accounting.
    governor: Dict[str, object]
    events: int = 0
    end_time: int = 0
    snapshots: List[Dict] = field(default_factory=list)
    #: Raw dispatches (drops under lazy periodic mode); excluded from
    #: equality and serialization like ``SimResult.raw_events``.
    raw_events: int = field(default=0, compare=False)
    #: ``FaultController.summary()`` of an armed run.  Live-only (not
    #: serialized, not compared): armed-empty plans must keep the stored
    #: payload and report digest bit-identical to a bare run.
    fault_summary: Dict[str, object] = field(
        default_factory=dict, compare=False
    )
    #: Per-tenant ``(completion_tick, sojourn_ticks)`` streams for the
    #: availability scorer, keyed like :attr:`tenants`.  Live-only for
    #: the same reason as :attr:`fault_summary`.
    tenant_completions: Dict[str, List] = field(
        default_factory=dict, compare=False
    )

    # -- headline metrics -------------------------------------------------
    def total(self, counter: str) -> int:
        return sum(int(row[counter]) for row in self.tenants.values())

    def goodput_rps(self) -> float:
        """Aggregate completed requests per second of offered-load window."""
        return self.total("completed") / (self.config.horizon_ns * 1e-9)

    def worst(self, percentile: str) -> float:
        """Worst per-tenant latency percentile in ns (e.g. ``"p999"``)."""
        return max(
            float(row["latency_ns"][percentile])
            for row in self.tenants.values()
        )

    # -- (de)serialization (sweep result store) -------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Complete JSON-safe report; every value is an exact integer, a
        string, or a deterministically computed float, so the canonical
        encoding is byte-identical across runs and processes."""
        return {
            "version": SCENARIO_REPORT_VERSION,
            "config": self.config.to_json_dict(),
            "tenants": self.tenants,
            "channels": self.channels,
            "governor": self.governor,
            "events": self.events,
            "end_time": self.end_time,
            "snapshots": self.snapshots,
        }

    @classmethod
    def from_json_dict(cls, state: Dict[str, object]) -> "ScenarioResult":
        return cls(
            config=ScenarioConfig.from_json_dict(state["config"]),
            tenants=state["tenants"],
            channels=state["channels"],
            governor=state["governor"],
            events=state["events"],
            end_time=state["end_time"],
            snapshots=state["snapshots"],
        )

    def report_digest(self) -> str:
        """sha256 over the canonical-JSON report -- the byte-identity
        oracle the acceptance criteria and CI smoke gate pin."""
        return hashlib.sha256(
            _canonical_json(self.to_json_dict()).encode("utf-8")
        ).hexdigest()


class _DrainMonitor:
    """Terminates the run: horizon passed and every admitted request done."""

    __slots__ = ("engine", "sources", "horizon_passed")

    def __init__(self, engine: Engine, sources: List[TenantSource]) -> None:
        self.engine = engine
        self.sources = sources
        self.horizon_passed = False

    def outstanding(self) -> int:
        return sum(source.outstanding for source in self.sources)

    def completion(self) -> None:
        if self.horizon_passed and self.outstanding() == 0:
            self.engine.stop()

    def horizon(self) -> None:
        self.horizon_passed = True
        if self.outstanding() == 0:
            self.engine.stop()


def build_scenario(
    config: ScenarioConfig,
    tracer=None,
    faults=None,
    periodic: str = "lazy",
) -> Dict[str, object]:
    """Instantiate the scenario machine without running it.

    Returns the component dictionary ``run_scenario`` executes; exposed
    separately so tests can poke at the wiring (and so the builder stays
    a pure function of the config).

    ``faults`` (a :class:`repro.faults.FaultController`, single-run) arms
    link/DRAM fault sites and the per-tenant secure-link recovery
    protocol, exactly as ``build_and_run`` does for single-app runs.  An
    armed controller with an *empty* plan leaves the run bit-identical
    to ``faults=None`` (recovery framing is schedule-neutral).

    ``periodic`` is the engine's periodic mode (:class:`Engine`); the
    result is identical in both modes.
    """
    engine = Engine(tracer=tracer, periodic=periodic)
    if faults is not None:
        faults.bind(engine, tracer)
    geometry = DeviceGeometry()
    secure_policy = SharePolicy({
        TrafficClass.SECURE: config.secure_share,
        TrafficClass.NORMAL: 1.0 - config.secure_share,
    })
    channels, bobs = build_bob_fabric(
        engine,
        num_channels=config.num_channels,
        secure_channels=config.secure_channels,
        secure_subchannels=config.secure_subchannels,
        normal_subchannels=config.normal_subchannels,
        dram_timing=config.dram_timing,
        channel_params=config.channel_params,
        link_params=config.link_params,
        secure_policy=secure_policy,
        tracer=tracer,
    )

    if faults is not None:
        for key in sorted(channels):
            channel = channels[key]
            site = faults.dram_site(channel.name)
            if site is not None:
                channel.arm_faults(site)
            if faults.capture_commands:
                faults.command_logs[channel.name] = \
                    channel.start_command_log()
        for ch in sorted(bobs):
            bob = bobs[ch]
            for link in (bob.down, bob.up):
                site = faults.link_site(link.name)
                if site is not None:
                    link.arm_faults(site)

    secure_set = frozenset(config.secure_channels)
    normal_bobs = {
        ch: bob for ch, bob in bobs.items() if ch not in secure_set
    }
    delegators: Dict[int, SecureDelegator] = {}
    for sc in sorted(secure_set):
        delegators[sc] = SecureDelegator(
            engine, bobs[sc], normal_bobs,
            process_ns=config.sd_process_ns,
            app_id=_SD_APP_ID_BASE + sc,
            name=f"sd{sc}",
            tracer=tracer,
        )

    # One ORAM tree per tenant, stacked per channel so regions never
    # collide (the multi-S-App layout rule from ``build_and_run``).
    home_base = {sc: 1 << 24 for sc in secure_set}
    controllers: Dict[int, OramController] = {}
    first_controller: Dict[int, OramController] = {}
    for tenant_id in range(config.num_tenants):
        sc = config.secure_channel_of(tenant_id)
        layout = OramLayout(
            config.oram,
            home_targets=[
                (sc, i) for i in range(config.secure_subchannels)
            ],
            geometry=geometry,
            base_line=home_base[sc],
        )
        home_base[sc] += layout.home_lines_per_target + (1 << 16)
        ctrl = OramController(
            engine, config.oram, layout, delegators[sc].sink,
            seed=config.seed + 31 * tenant_id,
            name=f"oram{tenant_id}",
            tracer=tracer,
        )
        controllers[tenant_id] = ctrl
        first_controller.setdefault(sc, ctrl)
    for sc, ctrl in first_controller.items():
        delegators[sc].sequencer = OramSequencer(ctrl)
    if faults is not None:
        for sc in sorted(secure_set):
            delegators[sc].arm_recovery(faults)

    horizon = ns(config.horizon_ns)
    sources: List[TenantSource] = []
    frontends: List[OramFrontend] = []
    tenant_faults = {
        fault.tenant_id: fault for fault in config.tenant_faults
    }
    monitor = _DrainMonitor(engine, sources)
    for tenant_id in range(config.num_tenants):
        sc = config.secure_channel_of(tenant_id)
        session = None
        if faults is not None:
            ctrl = controllers[tenant_id]

            def _make_fallback(ctrl=ctrl, tenant_id=tenant_id, sc=sc):
                # Host-side Path ORAM over the normal BOB path; built
                # lazily, only if the watchdog ever fires.
                fb_sink = BobChannelSink(
                    bobs, app_id=_SD_APP_ID_BASE + sc, faults=faults,
                    retry_limit=faults.recovery.block_read_retries,
                )
                fb_ctrl = OramController(
                    engine, ctrl.config, ctrl.layout, fb_sink,
                    seed=config.seed + 31 * tenant_id,
                    name=f"oram{tenant_id}.fb",
                    tracer=tracer,
                )
                return OnChipBackend(engine, fb_ctrl)

            session = SecureLinkSession(
                engine, bobs[sc], delegators[sc], ctrl,
                faults.recovery, faults,
                fallback_factory=_make_fallback,
                name=f"sdlink{tenant_id}",
            )
            backend = FailoverBackend(session)
        else:
            backend = DelegatorBackend(
                engine, bobs[sc], delegators[sc],
                controller=controllers[tenant_id],
            )
        frontend = OramFrontend(
            engine, backend, t_cycles=config.t_cycles,
            name=f"oram_fe{tenant_id}", tracer=tracer,
        )
        if session is not None:
            session.bind_pacer(frontend.pacer)
        frontends.append(frontend)
        stream = make_stream(
            config.arrival, derive_seed(config.seed, tenant_id)
        )
        source = TenantSource(
            engine, tenant_id, frontend, stream,
            horizon=horizon,
            queue_cap=config.queue_cap,
            write_fraction=config.write_fraction,
            request_seed=derive_seed(config.seed ^ 0x5EED, tenant_id),
            fault=tenant_faults.get(tenant_id),
            on_outstanding_change=(
                monitor.completion if config.drain else None
            ),
            tracer=tracer,
        )
        sources.append(source)

    governor: Optional[AdmissionGovernor] = None
    if config.governed:
        groups = {
            sc: [sources[t] for t in config.tenants_on(sc)]
            for sc in sorted(secure_set)
            if config.tenants_on(sc)
        }
        governor = AdmissionGovernor(
            engine, groups,
            interval=ns(config.control_interval_ns),
            slo_target_ticks=ns(config.slo_target_ns),
            min_admitting=config.min_admitting,
            tracer=tracer,
        )

    sampler: Optional[StatsSampler] = None
    if config.snapshot_interval_ns > 0:
        sampler = StatsSampler(
            engine, ns(config.snapshot_interval_ns), tracer=tracer
        )
        for source, frontend in zip(sources, frontends):
            sampler.add_source(
                source.name,
                _TenantSampler(source, frontend),
            )
        for sc in sorted(secure_set):
            delegator = delegators[sc]
            sampler.add_source(
                delegator.name,
                lambda d=delegator: {"pending": float(d.backlog)},
            )

    return {
        "engine": engine,
        "channels": channels,
        "bobs": bobs,
        "delegators": delegators,
        "controllers": controllers,
        "frontends": frontends,
        "sources": sources,
        "governor": governor,
        "sampler": sampler,
        "monitor": monitor,
        "horizon": horizon,
    }


class _TenantSampler:
    """Queue-depth-over-time source for one tenant (picklable-free,
    allocation-free closure replacement)."""

    __slots__ = ("source", "frontend")

    def __init__(self, source: TenantSource, frontend: OramFrontend) -> None:
        self.source = source
        self.frontend = frontend

    def __call__(self) -> Dict[str, float]:
        return {
            "queued": float(len(self.source._queue)),
            "backlog": float(self.frontend.backlog),
            "outstanding": float(self.source.outstanding),
        }


def run_scenario(
    config: ScenarioConfig,
    tracer=None,
    max_events: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    faults=None,
    periodic: str = "lazy",
) -> ScenarioResult:
    """Build, simulate, and report one multi-tenant scenario.

    ``periodic`` is forwarded to :func:`build_scenario`.
    """
    parts = build_scenario(config, tracer=tracer, faults=faults,
                           periodic=periodic)
    engine: Engine = parts["engine"]
    sources: List[TenantSource] = parts["sources"]
    frontends: List[OramFrontend] = parts["frontends"]
    governor: Optional[AdmissionGovernor] = parts["governor"]
    sampler: Optional[StatsSampler] = parts["sampler"]
    monitor: _DrainMonitor = parts["monitor"]
    horizon: int = parts["horizon"]

    # Start order is part of the determinism contract: frontends (the
    # fixed-rate emitters), then tenant arrival streams in id order,
    # then the governor and sampler, then the horizon sentinel.
    for frontend in frontends:
        frontend.start()
    for source in sources:
        source.start()
    if governor is not None:
        governor.start()
    if sampler is not None:
        sampler.start()

    if config.drain:
        def _horizon() -> None:
            if governor is not None:
                governor.stop()
            monitor.horizon()
        engine.at(horizon, _horizon)
    else:
        engine.at(horizon, engine.stop)

    if progress is not None:
        progress(
            f"serving {config.num_tenants} tenants for "
            f"{config.horizon_ns / 1e3:.0f} us "
            f"({config.arrival.kind} @ {config.arrival.rate_rps:g} rps)"
        )
    engine.run(max_events=max_events)

    # -- collect ----------------------------------------------------------
    horizon_s = config.horizon_ns * 1e-9
    tenant_rows: Dict[str, Dict[str, object]] = {}
    for source, frontend in zip(sources, frontends):
        stats = source.stats
        completed = stats.counter("completed").value
        lat = dict(latency_quantiles_ns(
            source.sojourn, TICKS_PER_NS, SLO_QUANTILES
        ))
        lat["count"] = source.sojourn_stat.count
        lat["mean"] = source.sojourn_stat.mean / TICKS_PER_NS
        lat["max"] = (source.sojourn_stat.max or 0) / TICKS_PER_NS
        queue_hist = stats.histogram("queue_depth")
        tenant_rows[str(source.tenant_id)] = {
            "secure_channel": config.secure_channel_of(source.tenant_id),
            "offered": stats.counter("offered").value,
            "admitted": stats.counter("admitted").value,
            "rejected_overflow": stats.counter("rejected_overflow").value,
            "rejected_shed": stats.counter("rejected_shed").value,
            "rejected_fault": stats.counter("rejected_fault").value,
            "completed": completed,
            "writes": stats.counter("writes").value,
            "goodput_rps": completed / horizon_s,
            "latency_ns": lat,
            "queue_depth": {
                "p50": queue_hist.quantile(0.5),
                "p99": queue_hist.quantile(0.99),
                "max": queue_hist.max_value,
            },
            "oram_emissions": {
                "real": frontend.pacer.stats.counter("real").value,
                "dummy": frontend.pacer.stats.counter("dummy").value,
            },
            "functional_digest": source.functional_digest,
            "timing_digest": source.timing_digest,
        }

    channels = parts["channels"]
    channel_rows: Dict[str, Dict[str, float]] = {}
    for key in sorted(channels):
        channel = channels[key]
        channel_rows[channel.name] = {
            "utilization": channel.utilization(),
            "row_hit_rate": channel.row_hit_rate(),
            "reads": channel.stats.counter("reads_serviced").value,
            "writes": channel.stats.counter("writes_serviced").value,
            "secure_reads": channel.stats.latency(
                "secure_read_latency").count,
            "secure_read_ns": channel.stats.latency(
                "secure_read_latency").mean / TICKS_PER_NS,
        }

    governor_doc: Dict[str, object] = {"enabled": config.governed}
    if governor is not None:
        governor_doc["decisions"] = governor.decisions
        governor_doc["sheds"] = governor.sheds

    return ScenarioResult(
        config=config,
        tenants=tenant_rows,
        channels=channel_rows,
        governor=governor_doc,
        events=engine.events_dispatched,
        end_time=engine.now,
        snapshots=sampler.rows if sampler is not None else [],
        raw_events=engine.raw_events_dispatched,
        fault_summary=faults.summary() if faults is not None else {},
        tenant_completions={
            str(source.tenant_id): list(source.completions)
            for source in sources
        },
    )


def golden_scenario_config() -> "ScenarioConfig":
    """The small fixed scenario pinned by the golden/census suites.

    Four tenants, a 13-level tree, writes in the mix, and the admission
    governor armed -- every scenario mechanism is exercised, yet a run
    takes well under a second.  Digest history lives in
    ``tests/obs/golden_digests.json`` under the ``"scenario"`` key;
    regenerate with ``python tools/regen_goldens.py`` after intentional
    timing changes.
    """
    from repro.oram.config import OramConfig

    return ScenarioConfig(
        num_tenants=4,
        horizon_ns=20_000.0,
        oram=OramConfig(leaf_level=12),
        seed=7,
        write_fraction=0.25,
        slo_target_ns=800.0,
    )


def golden_scenario_digests() -> Dict[str, str]:
    """``{"report": ..., "trace": ...}`` digests of the golden scenario."""
    from repro.obs.export import trace_digest
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    result = run_scenario(golden_scenario_config(), tracer=tracer)
    return {
        "report": result.report_digest(),
        "trace": trace_digest(tracer.events),
    }


def format_report(result: ScenarioResult) -> str:
    """Human-readable SLO table (the ``doram serve`` stdout form)."""
    lines = [
        f"tenants={result.config.num_tenants} "
        f"arrival={result.config.arrival.kind}"
        f"@{result.config.arrival.rate_rps:g}rps "
        f"horizon={result.config.horizon_ns / 1e3:g}us "
        f"seed={result.config.seed}",
        f"{'tenant':>6} {'ch':>3} {'offered':>8} {'admit':>7} {'shed':>6} "
        f"{'done':>7} {'goodput':>10} {'p50ns':>8} {'p99ns':>8} "
        f"{'p999ns':>8} {'maxns':>9}",
    ]
    for tenant_id in sorted(result.tenants, key=int):
        row = result.tenants[tenant_id]
        lat = row["latency_ns"]
        shed = (int(row["rejected_shed"]) + int(row["rejected_overflow"])
                + int(row["rejected_fault"]))
        lines.append(
            f"{tenant_id:>6} {row['secure_channel']:>3} "
            f"{row['offered']:>8} {row['admitted']:>7} {shed:>6} "
            f"{row['completed']:>7} {row['goodput_rps']:>10,.0f} "
            f"{lat['p50']:>8,.0f} {lat['p99']:>8,.0f} "
            f"{lat['p999']:>8,.0f} {lat['max']:>9,.0f}"
        )
    lines.append(
        f"aggregate: offered={result.total('offered')} "
        f"admitted={result.total('admitted')} "
        f"completed={result.total('completed')} "
        f"goodput={result.goodput_rps():,.0f} rps "
        f"worst-p999={result.worst('p999'):,.0f} ns"
    )
    if result.governor.get("enabled"):
        decisions = result.governor.get("decisions", [])
        sheds = result.governor.get("sheds", 0)
        lines.append(
            f"governor: {len(decisions)} decisions, {sheds} tenant-window "
            f"sheds"
        )
    lines.append(
        f"simulated {result.end_time / TICKS_PER_NS / 1000:.1f} us, "
        f"{result.events:,} events; report digest "
        f"{result.report_digest()[:16]}..."
    )
    return "\n".join(lines)
