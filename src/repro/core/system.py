"""Whole-system assembly and execution.

``build_and_run(SystemConfig)`` wires up the full machine -- cores, NS-App
routers, DRAM channels (direct-attached or BOB), and whichever protection
engine the scheme calls for -- runs it until every NS-App core drains its
trace, and returns a :class:`SimResult` with the measurements every figure
of the paper is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bob.channel import BobChannel
from repro.core.channel_sharing import sharing_targets
from repro.core.config import SystemConfig
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.core.frontend import DelegatorBackend, OnChipBackend, OramFrontend
from repro.core.recovery import (
    BobChannelSink,
    FailoverBackend,
    SecureLinkSession,
)
from repro.core.sinks import DirectChannelSink
from repro.cpu.core import Core, MemoryPort
from repro.dram.address_mapping import (
    ChannelInterleaver,
    DeviceGeometry,
    decode_line,
)
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.scheduler import SharePolicy, SingleClassPolicy
from repro.obs.snapshot import StatsSampler
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
    """Per-request completion for the NS-App routers.

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


class DirectRouter(MemoryPort):
    """NS-App port for the direct-attached architecture."""

    def __init__(
        self,
        engine: Engine,
        channels: Dict[Tuple[int, int], Channel],
        targets: List[Tuple[int, int]],
        app_id: int,
        app_slot: int,
        geometry: DeviceGeometry = DeviceGeometry(),
        hold_cap: int = 16,
    ) -> None:
        self.engine = engine
        self.channels = channels
        self.app_id = app_id
        self.interleaver = ChannelInterleaver(
            targets, geometry, app_base_line=app_slot * APP_SLICE_LINES
        )
        self.hold_cap = hold_cap
        self.stats = StatSet(f"router{app_id}")
        self._held: List[MemRequest] = []
        self._space_waiters: List[Callable[[], None]] = []
        self._lat_read = self.stats.latency("read_latency")
        self._lat_write = self.stats.latency("write_latency")

    def can_accept(self, op: OpType) -> bool:
        return len(self._held) < self.hold_cap

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)

    def issue(self, op, line_addr, app_id, on_complete) -> None:
        channel, subchannel, bank, row, col = \
            self.interleaver.map_line_tuple(line_addr)
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
        channel = self.channels[(req.channel, req.subchannel)]
        if channel.can_accept(req.op):
            channel.enqueue(req)
            self._wake()
        else:
            self._held.append(req)
            channel.notify_on_space(self._drain)

    def _drain(self) -> None:
        held, self._held = self._held, []
        for req in held:
            self._send_or_hold(req)

    def _wake(self) -> None:
        if self._space_waiters and len(self._held) < self.hold_cap:
            waiters, self._space_waiters = self._space_waiters, []
            for callback in waiters:
                callback()


class BobRouter(MemoryPort):
    """NS-App port for the BOB architecture.

    Lines stripe across the app's allowed channels; within the secure
    channel they further stripe across its four sub-channels.
    """

    def __init__(
        self,
        engine: Engine,
        bobs: Dict[int, BobChannel],
        allowed_channels: Tuple[int, ...],
        app_id: int,
        app_slot: int,
        geometry: DeviceGeometry = DeviceGeometry(),
        hold_cap: int = 16,
    ) -> None:
        self.engine = engine
        self.bobs = bobs
        self.allowed = tuple(allowed_channels)
        self.app_id = app_id
        self.base_line = app_slot * APP_SLICE_LINES
        self.geometry = geometry
        self.hold_cap = hold_cap
        self.stats = StatSet(f"router{app_id}")
        self._held: List[Tuple] = []
        self._space_waiters: List[Callable[[], None]] = []
        self._lat_read = self.stats.latency("read_latency")
        self._lat_write = self.stats.latency("write_latency")

    def can_accept(self, op: OpType) -> bool:
        return len(self._held) < self.hold_cap

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)

    def _map(self, line_addr: int) -> Tuple[int, int, int, int, int]:
        channel = self.allowed[line_addr % len(self.allowed)]
        stream = line_addr // len(self.allowed)
        nsub = len(self.bobs[channel].subchannels)
        subchannel = stream % nsub
        local = self.base_line + stream // nsub
        bank, row, col = decode_line(local, self.geometry)
        return channel, subchannel, bank, row, col

    def issue(self, op, line_addr, app_id, on_complete) -> None:
        channel, subchannel, bank, row, col = self._map(line_addr)
        done = _RouterDone(
            self._lat_write if op is OpType.WRITE else self._lat_read,
            self.engine.now, on_complete,
        )
        self._send_or_hold((op, channel, subchannel, bank, row, col, done))

    def _send_or_hold(self, item: Tuple) -> None:
        op, channel, subchannel, bank, row, col, done = item
        bob = self.bobs[channel]
        if bob.can_accept(op):
            bob.submit(op, subchannel, bank, row, col, self.app_id,
                       TrafficClass.NORMAL, done)
            self._wake()
        else:
            self._held.append(item)
            bob.notify_on_space(self._drain)

    def _drain(self) -> None:
        held, self._held = self._held, []
        for item in held:
            self._send_or_hold(item)

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
    #: census including synthesized periodic occurrences; this one drops
    #: under lazy periodic mode).  Excluded from equality and from
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

    def ns_max_time(self) -> float:
        return max(self.ns_finish.values())

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
        bobs[ch] = BobChannel(engine, ch, subs, link_params, tracer=tracer)
    return channels, bobs


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
                  max_events: Optional[int] = None,
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
    arms the fault-injection sites and the secure-link recovery
    protocol.  A controller whose plan is empty leaves the run
    bit-identical to ``faults=None`` (same trace digest, same
    serialized result) -- the recovery framing is schedule-neutral.

    ``periodic`` is the engine's periodic mode (:class:`Engine`):
    ``"eager"`` is the dispatch-per-occurrence census oracle, and the
    serialized result is identical in both modes.
    """
    engine = Engine(tracer=tracer, periodic=periodic)
    if faults is not None:
        faults.bind(engine, tracer)
    geometry = DeviceGeometry()
    secure_share = config.secure_share_policy()

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

    # -- NS-App ports -------------------------------------------------------
    ns_ports: Dict[int, MemoryPort] = {}
    for app in range(config.num_ns_apps):
        allowed = _ns_allowed_channels(config, app)
        if config.arch == "direct":
            targets = [(ch, 0) for ch in allowed]
            ns_ports[app] = DirectRouter(
                engine, channels, targets, app, app_slot=app,
                geometry=geometry,
            )
        else:
            ns_ports[app] = BobRouter(
                engine, bobs, allowed, app, app_slot=app, geometry=geometry,
            )

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
                if faults is not None:
                    sink = DirectChannelSink(
                        channels, app_id=s_app_id, faults=faults,
                        retry_limit=faults.recovery.block_read_retries,
                    )
                else:
                    sink = DirectChannelSink(channels, app_id=s_app_id)
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
                secure_bob = bobs[config.secure_channel]
                normal_bobs = {
                    ch: bob for ch, bob in bobs.items()
                    if ch != config.secure_channel
                }
                delegator = SecureDelegator(
                    engine, secure_bob, normal_bobs,
                    process_ns=config.sd_process_ns, app_id=s_app_id,
                    merge_short_reads=config.merge_short_reads,
                    tracer=tracer,
                )
                remote_targets = [(ch, 0) for ch in sorted(normal_bobs)]
                # Remote footprint per tree (split levels, per channel).
                remote_span = sum(
                    (1 << l) + -(-(1 << l) // max(len(remote_targets), 1))
                    for l in range(ocfg.num_levels - config.split_k,
                                   ocfg.num_levels)
                )
                home_base = 1 << 24
                remote_base = 1 << 24
                for s_index in range(config.num_s_apps):
                    layout = OramLayout(
                        ocfg,
                        home_targets=[
                            (config.secure_channel, i)
                            for i in range(config.secure_subchannels)
                        ],
                        geometry=geometry,
                        base_line=home_base,
                        home_levels=ocfg.num_levels - config.split_k,
                        remote_targets=(
                            remote_targets if config.split_k else ()
                        ),
                        remote_base_line=remote_base,
                    )
                    home_base += layout.home_lines_per_target + (1 << 16)
                    remote_base += remote_span + (1 << 16)
                    ctrl = OramController(
                        engine, ocfg, layout, delegator.sink,
                        seed=config.seed + 31 * s_index,
                        name=f"oram{s_index}",
                        fork_path=config.fork_path,
                        tracer=tracer,
                    )
                    controllers.append(ctrl)
                delegator.sequencer = OramSequencer(controllers[0])
                if faults is not None:
                    delegator.arm_recovery(faults)
                for s_index, ctrl in enumerate(controllers):
                    session = None
                    if faults is not None:
                        # Recovery-protocol endpoint; the fallback (a
                        # host-side Path ORAM over the normal BOB path)
                        # is only built if the watchdog ever fires, so
                        # a fault-free run allocates nothing extra.
                        def _make_fallback(ctrl=ctrl, s_index=s_index):
                            fb_sink = BobChannelSink(
                                bobs, app_id=s_app_id, faults=faults,
                                retry_limit=(
                                    faults.recovery.block_read_retries
                                ),
                            )
                            fb_ctrl = OramController(
                                engine, ctrl.config, ctrl.layout, fb_sink,
                                seed=config.seed + 31 * s_index,
                                name=f"oram{s_index}.fb",
                                fork_path=config.fork_path,
                                tracer=tracer,
                            )
                            fallback_controllers.append(fb_ctrl)
                            return OnChipBackend(engine, fb_ctrl)

                        session = SecureLinkSession(
                            engine, secure_bob, delegator, ctrl,
                            faults.recovery, faults,
                            fallback_factory=_make_fallback,
                            name=f"sdlink{s_index}",
                        )
                        backend = FailoverBackend(session)
                    else:
                        backend = DelegatorBackend(
                            engine, secure_bob, delegator, controller=ctrl
                        )
                    frontend = OramFrontend(
                        engine, backend, t_cycles=config.t_cycles,
                        name=f"oram_fe{s_index}", tracer=tracer,
                    )
                    if session is not None:
                        session.bind_pacer(frontend.pacer)
                    frontend.start()
                    frontends.append(frontend)
                    s_ports.append(frontend)
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
            if config.arch == "direct":
                targets = [(ch, 0) for ch in range(config.num_channels)]
                s_ports.append(DirectRouter(
                    engine, channels, targets, s_app_id,
                    app_slot=s_app_id, geometry=geometry,
                ))
            else:
                s_ports.append(BobRouter(
                    engine, bobs, tuple(range(config.num_channels)),
                    s_app_id, app_slot=s_app_id, geometry=geometry,
                ))

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
    engine.run(max_events=max_events)
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
