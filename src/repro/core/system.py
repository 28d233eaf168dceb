"""Whole-system assembly and execution.

``build_and_run(SystemConfig)`` wires up the full machine -- cores, NS-App
routers, DRAM channels (direct-attached or BOB), and whichever protection
engine the scheme calls for -- runs it until every NS-App core drains its
trace, and returns a :class:`SimResult` with the measurements every figure
of the paper is computed from.

The scenario layer shares :func:`build_bob_fabric` and
:func:`build_delegation`, the one place delegated trees and their
frontends are built.  Every NS-App port is an :class:`NsRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bob.channel import BobChannel
from repro.core.channel_sharing import sharing_targets
from repro.core.config import SystemConfig
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.core.frontend import OnChipBackend, OramFrontend
from repro.core.recovery import SecureLinkSession
from repro.core.sinks import BobChannelSink, DirectChannelSink
from repro.cpu.core import Core, MemoryPort
from repro.dram.address_mapping import (
    ChannelInterleaver,
    DeviceGeometry,
    decode_line,
)
from repro.dram.channel import Channel, LaneGroup
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.scheduler import SharePolicy, SingleClassPolicy
from repro.obs.snapshot import StatsSampler
from repro.oram.config import OramConfig
from repro.oram.controller import OramController
from repro.oram.layout import OramLayout
from repro.securemem import SecureMemPort
from repro.sim.engine import Engine, TICKS_PER_NS, ns
from repro.sim.stats import LatencyStat, StatSet
from repro.trace.benchmarks import benchmark_trace

#: Line-space slice reserved per application (keeps app address spaces
#: disjoint inside every channel).
APP_SLICE_LINES = 1 << 19


class _RouterDone:
    """Per-request completion for :class:`NsRouter`.

    One ``__slots__`` object instead of a closure per issued request; the
    latency-stat update is inlined (latency is non-negative since
    completion never precedes issue).
    """

    __slots__ = ("stat", "issued", "oc")

    def __init__(self, stat: LatencyStat, issued: int, oc) -> None:
        self.stat = stat
        self.issued = issued
        self.oc = oc

    def __call__(self, time: int) -> None:
        lat = time - self.issued
        stat = self.stat
        stat.count += 1
        stat.total += lat
        bound = stat.min
        if bound is None or lat < bound:
            stat.min = lat
        bound = stat.max
        if bound is None or lat > bound:
            stat.max = lat
        oc = self.oc
        if oc is not None:
            oc(time)


class NsRouter(MemoryPort):
    """NS-App port: ``line_map(line)`` gives ``(channel, subchannel,
    bank, row, col)``, and ``targets[(channel, subchannel)]`` (a DRAM
    :class:`Channel`, or the :class:`BobChannel` in front of the
    sub-channel) takes the request; what a target cannot take yet waits
    here.  :meth:`direct` and :meth:`bob` own the two line maps."""

    def __init__(
        self,
        engine: Engine,
        targets: Dict[Tuple[int, int], object],
        line_map: Callable[[int], Tuple[int, int, int, int, int]],
        app_id: int,
        hold_cap: int = 16,
    ) -> None:
        self.engine = engine
        self.targets = targets
        self.line_map = line_map
        self.app_id = app_id
        self.hold_cap = hold_cap
        self.stats = StatSet(f"router{app_id}")
        self._held: List[MemRequest] = []
        self._space_waiters: List[Callable[[], None]] = []
        self._lat_read = self.stats.latency("read_latency")
        self._lat_write = self.stats.latency("write_latency")

    @classmethod
    def direct(cls, engine: Engine, channels: Dict[Tuple[int, int], Channel],
               targets: List[Tuple[int, int]], app_id: int, app_slot: int,
               geometry: DeviceGeometry = DeviceGeometry(),
               hold_cap: int = 16) -> "NsRouter":
        """Direct-attached channels: lines stripe across ``targets``."""
        interleaver = ChannelInterleaver(
            targets, geometry, app_base_line=app_slot * APP_SLICE_LINES
        )
        return cls(engine, channels, interleaver.map_line, app_id, hold_cap)

    @classmethod
    def bob(cls, engine: Engine, bobs: Dict[int, BobChannel],
            allowed_channels: Tuple[int, ...], app_id: int, app_slot: int,
            geometry: DeviceGeometry = DeviceGeometry(),
            hold_cap: int = 16) -> "NsRouter":
        """BOB channels: lines stripe across the allowed channels, then
        across each channel's sub-channels."""
        allowed = tuple(allowed_channels)
        base_line = app_slot * APP_SLICE_LINES

        def line_map(line_addr: int) -> Tuple[int, int, int, int, int]:
            channel = allowed[line_addr % len(allowed)]
            stream = line_addr // len(allowed)
            nsub = len(bobs[channel].subchannels)
            bank, row, col = decode_line(base_line + stream // nsub,
                                         geometry)
            return channel, stream % nsub, bank, row, col

        targets = {(ch, i): bob for ch, bob in bobs.items()
                   for i in range(len(bob.subchannels))}
        return cls(engine, targets, line_map, app_id, hold_cap)

    def can_accept(self, op: OpType) -> bool:
        return len(self._held) < self.hold_cap

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)

    def issue(self, op, line_addr, app_id, on_complete) -> None:
        channel, subchannel, bank, row, col = self.line_map(line_addr)
        done = _RouterDone(
            self._lat_write if op is OpType.WRITE else self._lat_read,
            self.engine.now, on_complete,
        )
        req = MemRequest(
            op, channel, subchannel, bank, row, col,
            self.app_id, TrafficClass.NORMAL, 0, done,
        )
        self._send_or_hold(req)

    def _send_or_hold(self, req: MemRequest) -> None:
        target = self.targets[(req.channel, req.subchannel)]
        if target.can_accept(req.op):
            target.enqueue(req)
            self._wake()
        else:
            self._held.append(req)
            target.notify_on_space(self._drain)

    def _drain(self) -> None:
        held, self._held = self._held, []
        for req in held:
            self._send_or_hold(req)

    def _wake(self) -> None:
        if self._space_waiters and len(self._held) < self.hold_cap:
            waiters, self._space_waiters = self._space_waiters, []
            for callback in waiters:
                callback()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class SimResult:
    """Everything measured in one run."""

    config: SystemConfig
    #: Per-NS-app finish time in ticks.
    ns_finish: Dict[int, int]
    #: NS-App end-to-end memory latencies (merged over apps).
    ns_read_latency: LatencyStat
    ns_write_latency: LatencyStat
    #: Per-channel summary rows.
    channels: Dict[str, Dict[str, float]]
    #: S-App / ORAM engine summary (empty when no S-App).
    s_app: Dict[str, float] = field(default_factory=dict)
    events: int = 0
    end_time: int = 0
    #: Periodic StatSet snapshots (rows of ``{"ts": tick, track: {...}}``),
    #: populated when ``build_and_run`` was given a snapshot interval.
    snapshots: List[Dict] = field(default_factory=list)
    #: Full :meth:`StatSet.as_dict` export per protection-engine component
    #: (frontends, controllers, delegator), keyed by component name.
    component_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Events the engine actually dispatched (``events`` is the logical
    #: census including synthesized occurrences; this one drops under
    #: lazy periodic mode).  Excluded from equality and from
    #: :meth:`to_json_dict` so serialized results stay identical across
    #: periodic modes.
    raw_events: int = field(default=0, compare=False)
    #: Fault-injection and recovery counters (``FaultController.summary``)
    #: when the run had a fault plan attached; ``None`` otherwise.
    #: Excluded from equality and serialization so armed-but-empty runs
    #: stay byte-identical to plain runs in the sweep store.
    fault_summary: Optional[Dict[str, Dict[str, float]]] = field(
        default=None, compare=False
    )

    # -- headline metrics -------------------------------------------------
    def ns_mean_time(self) -> float:
        """Average NS-App execution time in ticks (the Figs. 9-11 metric)."""
        if not self.ns_finish:
            raise ValueError("run had no NS-Apps")
        return sum(self.ns_finish.values()) / len(self.ns_finish)

    def ns_mean_ns(self) -> float:
        return self.ns_mean_time() / TICKS_PER_NS

    def read_latency_ns(self) -> float:
        return self.ns_read_latency.mean / TICKS_PER_NS

    def write_latency_ns(self) -> float:
        return self.ns_write_latency.mean / TICKS_PER_NS

    # -- (de)serialization (sweep result store) -------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Complete JSON-safe form of the run.

        Every value is an exact integer, a string, or a float computed
        deterministically by the simulator, so serializing the same run
        twice -- in any process, any worker -- produces byte-identical
        canonical JSON.  The sweep store and its equivalence tests rely
        on that.
        """
        return {
            "config": self.config.to_json_dict(),
            "ns_finish": {str(app): t for app, t in self.ns_finish.items()},
            "ns_read_latency": self.ns_read_latency.as_dict(),
            "ns_write_latency": self.ns_write_latency.as_dict(),
            "channels": self.channels,
            "s_app": self.s_app,
            "events": self.events,
            "end_time": self.end_time,
            "snapshots": self.snapshots,
            "component_stats": self.component_stats,
        }

    @classmethod
    def from_json_dict(cls, state: Dict[str, object]) -> "SimResult":
        return cls(
            config=SystemConfig.from_json_dict(state["config"]),
            ns_finish={int(app): t
                       for app, t in state["ns_finish"].items()},
            ns_read_latency=LatencyStat.from_dict(state["ns_read_latency"]),
            ns_write_latency=LatencyStat.from_dict(state["ns_write_latency"]),
            channels=state["channels"],
            s_app=state["s_app"],
            events=state["events"],
            end_time=state["end_time"],
            snapshots=state["snapshots"],
            component_stats=state["component_stats"],
        )


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def build_bob_fabric(
    engine: Engine,
    *,
    num_channels: int,
    secure_channels: Tuple[int, ...],
    secure_subchannels: int,
    normal_subchannels: int,
    dram_timing,
    channel_params,
    link_params,
    secure_policy: Optional[SharePolicy] = None,
    tracer=None,
) -> Tuple[Dict[Tuple[int, int], Channel], Dict[int, BobChannel]]:
    """Construct the BOB channel fabric: sub-channels plus serial links.

    Shared by :func:`build_and_run` (one secure channel, the paper's
    machine) and the scenario service layer (possibly several secure
    channels hosting one delegator each).  Channels are created in
    ``(channel, subchannel)`` order -- construction order is part of the
    determinism contract, since engine sequence numbers follow it.

    ``secure_policy`` is applied to every sub-channel of a secure
    channel (the bandwidth-preallocation scheduler); ``None`` gives all
    sub-channels the single-class policy.

    With a lazy engine, the sub-channels of each secure channel with at
    least two form one :class:`~repro.dram.channel.LaneGroup`: they are
    simulated once while their request streams stay identical, and
    split for good when they diverge.  ``periodic="eager"`` forms none,
    so it stays the per-lane oracle.
    """
    channels: Dict[Tuple[int, int], Channel] = {}
    bobs: Dict[int, BobChannel] = {}
    secure_set = frozenset(secure_channels)
    for ch in range(num_channels):
        is_secure = ch in secure_set
        nsub = secure_subchannels if is_secure else normal_subchannels
        subs = []
        for i in range(nsub):
            policy = (
                secure_policy if (is_secure and secure_policy is not None)
                else SingleClassPolicy()
            )
            sub = Channel(
                engine, f"ch{ch}.{i}", dram_timing, channel_params,
                share_policy=policy, tracer=tracer,
            )
            subs.append(sub)
            channels[(ch, i)] = sub
        if is_secure and nsub >= 2 and engine.lazy_periodic:
            LaneGroup(subs)
        bobs[ch] = BobChannel(engine, ch, subs, link_params, tracer=tracer)
    return channels, bobs


def build_delegation(
    engine: Engine,
    bobs: Dict[int, BobChannel],
    delegators: Dict[int, SecureDelegator],
    tenant_channels: Sequence[int],
    oram: OramConfig,
    *,
    seed: int,
    t_cycles: int,
    split_k: int = 0,
    fork_path: bool = False,
    faults=None,
    tracer=None,
) -> Tuple[List[OramController], List[OramFrontend], List[OramController]]:
    """The delegated side of a D-ORAM machine: one ORAM tree per tenant.

    Tenant ``i`` (an S-App or a scenario tenant) lives on the SD
    ``delegators[tenant_channels[i]]``.  Its tree stacks above the
    earlier trees on that SD's sub-channels and, with ``split_k`` split
    levels, on the normal channels' remote region (which every SD
    shares), ``1 << 16`` lines past its neighbour.  Controller
    ``oram{i}`` (seed ``seed + 31*i``, the SD as block sink) serves it;
    each SD's sequencer runs on the first tree it hosts.  Frontend
    ``oram_fe{i}`` rides session ``sdlink{i}``, which builds the
    host-side engine ``oram{i}.fb`` (same tree, seed and ``fork_path``,
    over the normal BOB path, tagged with the SD's app id) only on
    failover.

    Returns ``(controllers, frontends, fallbacks)``; ``fallbacks`` fills
    as sessions fail over.  Nothing here schedules an event; the caller
    starts the frontends in tenant order, which fixes engine sequence
    numbers.
    """
    controllers: List[OramController] = []
    frontends: List[OramFrontend] = []
    fallbacks: List[OramController] = []
    home_base = dict.fromkeys(delegators, 1 << 24)
    remote_base = 1 << 24
    for index, sc in enumerate(tenant_channels):
        sd = delegators[sc]
        layout = OramLayout(
            oram,
            home_targets=[
                (sc, i) for i in range(len(sd.secure_bob.subchannels))
            ],
            base_line=home_base[sc],
            home_levels=oram.num_levels - split_k,
            remote_targets=(
                [(ch, 0) for ch in sorted(sd.normal_bobs)] if split_k
                else ()
            ),
            remote_base_line=remote_base,
        )
        home_base[sc] += layout.home_lines_per_target + (1 << 16)
        remote_base += layout.remote_lines_per_target + (1 << 16)
        tree_seed = seed + 31 * index
        controller = OramController(
            engine, oram, layout, sd, seed=tree_seed, name=f"oram{index}",
            fork_path=fork_path, tracer=tracer,
        )
        controllers.append(controller)
        if sd.sequencer is None:
            sd.sequencer = OramSequencer(controller)

        def make_fallback(index=index, layout=layout, tree_seed=tree_seed,
                          app_id=sd.app_id) -> OnChipBackend:
            fallback = OramController(
                engine, oram, layout,
                BobChannelSink(bobs, app_id=app_id, faults=faults),
                seed=tree_seed, name=f"oram{index}.fb", fork_path=fork_path,
                tracer=tracer,
            )
            fallbacks.append(fallback)
            return OnChipBackend(engine, fallback)

        session = SecureLinkSession(
            engine, sd.secure_bob, sd, controller,
            faults=faults, fallback_factory=make_fallback,
            sd_sessions=tenant_channels.count(sc), name=f"sdlink{index}",
        )
        frontend = OramFrontend(engine, session, t_cycles=t_cycles,
                                name=f"oram_fe{index}", tracer=tracer)
        session.bind_pacer(frontend.pacer)
        frontends.append(frontend)
    return controllers, frontends, fallbacks


def _ns_allowed_channels(config: SystemConfig, app: int) -> Tuple[int, ...]:
    """Channel set for NS-App ``app`` under the scheme's policies."""
    base = config.ns_channels or tuple(range(config.num_channels))
    if config.c_limit is None or config.secure_channel not in base:
        return tuple(base)
    allowed = sharing_targets(
        config.num_ns_apps, config.c_limit, base, config.secure_channel
    )
    return allowed[app]


def build_and_run(config: SystemConfig,
                  tracer=None,
                  snapshot_interval_ns: Optional[float] = None,
                  faults=None,
                  periodic: str = "lazy") -> SimResult:
    """Instantiate the configured system, simulate, and measure.

    ``tracer`` (a :class:`repro.obs.Tracer`) turns on event tracing in
    every instrumented component; ``snapshot_interval_ns`` additionally
    samples per-channel occupancy/utilization (and the ORAM frontend
    backlog) on that period, into both the tracer (counter events) and
    :attr:`SimResult.snapshots`.

    ``faults`` (a :class:`repro.faults.FaultController`, single-run)
    arms the fault-injection sites and attaches the plan to the
    secure-link sessions, which then arm their response deadlines.  A
    controller whose plan is empty leaves the run bit-identical to
    ``faults=None`` (same trace digest, same serialized result).

    ``periodic`` is the engine's periodic mode (:class:`Engine`):
    ``"eager"`` books no completion and forms no lane group, so it is
    the dispatch-per-occurrence census oracle; the serialized result is
    identical in both modes.
    """
    engine = Engine(tracer=tracer, periodic=periodic)
    if faults is not None:
        faults.bind(engine, tracer)
    geometry = DeviceGeometry()
    secure_share = SharePolicy(config.secure_share)

    channels: Dict[Tuple[int, int], Channel] = {}
    bobs: Dict[int, BobChannel] = {}
    oram_in_dram = config.has_s_app and config.protection == "path"

    if config.arch == "direct":
        for ch in range(config.num_channels):
            # Secure and normal traffic share every channel in the
            # on-chip baseline, so each gets the preallocation policy.
            policy = secure_share if oram_in_dram else SingleClassPolicy()
            channels[(ch, 0)] = Channel(
                engine, f"ch{ch}", config.dram_timing, config.channel_params,
                share_policy=policy, tracer=tracer,
            )
    else:
        channels, bobs = build_bob_fabric(
            engine,
            num_channels=config.num_channels,
            secure_channels=(config.secure_channel,),
            secure_subchannels=config.secure_subchannels,
            normal_subchannels=config.normal_subchannels,
            dram_timing=config.dram_timing,
            channel_params=config.channel_params,
            link_params=config.link_params,
            secure_policy=secure_share if oram_in_dram else None,
            tracer=tracer,
        )

    if faults is not None:
        faults.arm_fabric(channels, bobs)

    # -- NS-App ports -------------------------------------------------------
    def router(allowed: Tuple[int, ...], app: int) -> NsRouter:
        if config.arch == "direct":
            targets = [(ch, 0) for ch in allowed]
            return NsRouter.direct(engine, channels, targets, app,
                                   app_slot=app, geometry=geometry)
        return NsRouter.bob(engine, bobs, allowed, app, app_slot=app,
                            geometry=geometry)

    ns_ports = {app: router(_ns_allowed_channels(config, app), app)
                for app in range(config.num_ns_apps)}

    # -- S-App protection engines ----------------------------------------
    s_ports: List[MemoryPort] = []
    frontends: List[OramFrontend] = []
    controllers: List[OramController] = []
    #: Host-side engines built on demand by secure-link failover; empty
    #: unless a fault plan actually killed the delegator.
    fallback_controllers: List[OramController] = []
    delegator: Optional[SecureDelegator] = None
    s_app_id = config.num_ns_apps  # first S-App id

    if config.has_s_app:
        if config.protection == "path":
            ocfg = config.effective_oram()
            if config.oram_placement == "onchip":
                layout = OramLayout(
                    ocfg,
                    home_targets=[(ch, 0) for ch in range(config.num_channels)],
                    geometry=geometry,
                )
                sink = DirectChannelSink(channels, app_id=s_app_id,
                                         faults=faults)
                controller = OramController(engine, ocfg, layout, sink,
                                            seed=config.seed,
                                            fork_path=config.fork_path,
                                            tracer=tracer)
                controllers.append(controller)
                backend = OnChipBackend(engine, controller)
                frontend = OramFrontend(engine, backend,
                                        t_cycles=config.t_cycles,
                                        tracer=tracer)
                frontend.start()
                frontends.append(frontend)
                s_ports.append(frontend)
            else:
                normal_bobs = {
                    ch: bob for ch, bob in bobs.items()
                    if ch != config.secure_channel
                }
                delegator = SecureDelegator(
                    engine, bobs[config.secure_channel], normal_bobs,
                    process_ns=config.sd_process_ns, app_id=s_app_id,
                    merge_short_reads=config.merge_short_reads,
                    tracer=tracer, faults=faults,
                )
                controllers, frontends, fallback_controllers = \
                    build_delegation(
                        engine, bobs, {config.secure_channel: delegator},
                        [config.secure_channel] * config.num_s_apps, ocfg,
                        seed=config.seed, t_cycles=config.t_cycles,
                        split_k=config.split_k, fork_path=config.fork_path,
                        faults=faults, tracer=tracer,
                    )
                for frontend in frontends:
                    frontend.start()
                s_ports.extend(frontends)
        elif config.protection == "securemem":
            interleaver = ChannelInterleaver(
                sorted(channels.keys()), geometry,
                app_base_line=s_app_id * APP_SLICE_LINES,
            )
            s_ports.append(SecureMemPort(
                engine, channels, interleaver, app_id=s_app_id,
                seed=config.seed,
            ))
        else:  # "none": the S-App runs unprotected, like an NS-App.
            s_ports.append(router(tuple(range(config.num_channels)),
                                  s_app_id))

    # -- cores ---------------------------------------------------------------
    unfinished = {"count": config.num_ns_apps}
    cores: List[Core] = []

    def ns_done(_time: int) -> None:
        unfinished["count"] -= 1
        if unfinished["count"] == 0:
            engine.stop()

    for app in range(config.num_ns_apps):
        trace = benchmark_trace(
            config.benchmark, config.trace_length,
            copy_index=app, segment=config.segment,
        )
        core = Core(engine, app, trace, ns_ports[app],
                    params=config.core_params, on_finish=ns_done)
        cores.append(core)
        core.start()

    s_cores: List[Core] = []
    for s_index, s_port in enumerate(s_ports):
        app_id = config.num_ns_apps + s_index
        trace = benchmark_trace(
            config.benchmark, config.trace_length,
            copy_index=app_id, segment=config.segment,
        )
        if config.num_ns_apps == 0 and s_index == 0:
            s_core = Core(engine, app_id, trace, s_port,
                          params=config.core_params,
                          on_finish=lambda _t: engine.stop())
        else:
            s_core = Core(engine, app_id, trace, s_port,
                          params=config.core_params)
        cores.append(s_core)
        s_cores.append(s_core)
        s_core.start()

    if not cores:
        raise ValueError("configuration produced no cores")

    # -- periodic stat snapshots ---------------------------------------------
    sampler: Optional[StatsSampler] = None
    if snapshot_interval_ns is not None:
        sampler = StatsSampler(engine, ns(snapshot_interval_ns),
                               tracer=tracer)
        for key in sorted(channels):
            channel = channels[key]
            sampler.add_source(
                channel.name,
                lambda c=channel: {
                    "queued": float(c.queued),
                    "util": c.utilization(),
                },
            )
        for frontend in frontends:
            sampler.add_source(
                frontend.name,
                lambda f=frontend: {"backlog": float(f.backlog)},
            )
        sampler.start()

    # -- simulate -------------------------------------------------------------
    engine.run()
    ns_cores = cores[: config.num_ns_apps]
    if any(not c.finished for c in ns_cores):
        stuck = [c.name for c in ns_cores if not c.finished]
        raise RuntimeError(
            f"simulation drained with unfinished NS cores {stuck} "
            f"at t={engine.now}; this is a model deadlock"
        )

    # -- collect ---------------------------------------------------------------
    ns_read = LatencyStat("ns.read")
    ns_write = LatencyStat("ns.write")
    for app in range(config.num_ns_apps):
        router = ns_ports[app]
        ns_read.merge(router.stats.latency("read_latency"))
        ns_write.merge(router.stats.latency("write_latency"))

    channel_rows: Dict[str, Dict[str, float]] = {}
    for key in sorted(channels):
        channel = channels[key]
        channel_rows[channel.name] = {
            "utilization": channel.utilization(),
            "row_hit_rate": channel.row_hit_rate(),
            "reads": channel.stats.counter("reads_serviced").value,
            "writes": channel.stats.counter("writes_serviced").value,
            "normal_read_ns": channel.stats.latency(
                "normal_read_latency").mean / TICKS_PER_NS,
            "secure_read_ns": channel.stats.latency(
                "secure_read_latency").mean / TICKS_PER_NS,
            "normal_reads": channel.stats.latency(
                "normal_read_latency").count,
            "secure_reads": channel.stats.latency(
                "secure_read_latency").count,
        }

    s_stats: Dict[str, float] = {}
    if frontends:
        response = LatencyStat("s.oram_response")
        real = dummy = 0
        for frontend in frontends:
            response.merge(frontend.stats.latency("oram_response"))
            real += frontend.pacer.stats.counter("real").value
            dummy += frontend.pacer.stats.counter("dummy").value
        s_stats["oram_accesses"] = real + dummy
        s_stats["oram_real_fraction"] = (
            real / (real + dummy) if real + dummy else 0.0
        )
        s_stats["oram_response_ns"] = response.mean / TICKS_PER_NS
    if controllers:
        read_phase = LatencyStat("s.read_phase")
        write_phase = LatencyStat("s.write_phase")
        for controller in controllers:
            read_phase.merge(controller.stats.latency("read_phase"))
            write_phase.merge(controller.stats.latency("write_phase"))
        s_stats["read_phase_ns"] = read_phase.mean / TICKS_PER_NS
        s_stats["write_phase_ns"] = write_phase.mean / TICKS_PER_NS
    if delegator is not None:
        s_stats["remote_short_reads"] = delegator.stats.counter(
            "remote_short_reads").value
        s_stats["remote_writes"] = delegator.stats.counter(
            "remote_writes").value
    component_stats: Dict[str, Dict[str, float]] = {}
    for frontend in frontends:
        component_stats[frontend.name] = frontend.stats.as_dict()
    for controller in controllers:
        component_stats[controller.name] = controller.stats.as_dict()
    for controller in fallback_controllers:
        component_stats[controller.name] = controller.stats.as_dict()
    if delegator is not None:
        component_stats["delegator"] = delegator.stats.as_dict()
    if s_cores:
        s_stats["s_instructions"] = sum(
            core.stats.counter("loads_issued").value
            + core.stats.counter("stores_issued").value
            for core in s_cores
        )

    return SimResult(
        config=config,
        ns_finish={app: core.finish_time for app, core in
                   enumerate(cores[: config.num_ns_apps])},
        ns_read_latency=ns_read,
        ns_write_latency=ns_write,
        channels=channel_rows,
        s_app=s_stats,
        events=engine.events_dispatched,
        end_time=engine.now,
        snapshots=sampler.rows if sampler is not None else [],
        component_stats=component_stats,
        raw_events=engine.raw_events_dispatched,
        fault_summary=faults.summary() if faults is not None else None,
    )
