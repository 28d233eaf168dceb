"""Fault injection: binding a :class:`FaultPlan` to one simulation.

A :class:`FaultController` is single-run: the system builder calls
:meth:`FaultController.bind` with the engine/tracer and
:meth:`FaultController.arm_fabric` with the channels and links, and the
delegator asks for its site (:meth:`sd_site`); per-site injectors
(:meth:`link_site`, :meth:`dram_site`) arm a component only when a site
actually has rules for it.
A link or channel with no matching rule keeps its ``_faults`` hook at
``None`` and pays nothing; an armed site costs one rule scan (plus at
most one RNG draw per rule) per packet or read completion.

Determinism: each site owns an independent seeded stream (see
:func:`repro.faults.plan.site_rng`), and all decisions are made in model
event order, so a plan reproduces the same fault schedule in both
periodic modes (eager/lazy).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import (
    DramFault,
    FaultPlan,
    LinkFault,
    site_rng,
    _window_ticks,
)
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import ns
from repro.sim.stats import StatSet


class _LinkRuleState:
    """One compiled link rule: window in ticks, match counter, RNG."""

    __slots__ = ("rule", "lo", "hi", "delay_ticks", "count", "rng",
                 "packet_set")

    def __init__(self, rule: LinkFault, rng) -> None:
        self.rule = rule
        self.lo, self.hi = _window_ticks(rule.start_ns, rule.stop_ns)
        self.delay_ticks = ns(rule.delay_ns)
        self.count = 0
        self.rng = rng
        self.packet_set = frozenset(rule.packets)


class LinkFaultSite:
    """Per-link injector, consulted by :meth:`SerialLink.send`."""

    __slots__ = ("controller", "name", "rules")

    def __init__(self, controller: "FaultController", name: str,
                 rules: List[LinkFault]) -> None:
        self.controller = controller
        self.name = name
        self.rules = [
            _LinkRuleState(
                rule, site_rng(controller.plan.seed, f"link.{i}", name)
            )
            for i, rule in enumerate(rules)
        ]

    def on_packet(self, tag: str, deliver, arg) -> Tuple[int, bool]:
        """Decide this packet's fate: ``(extra_delay_ticks, dropped)``.

        ``corrupt`` and ``drop`` need a fault-aware target -- the
        delivered object's ``link_fault`` hook (recovery frames, remote
        ops).  A hit on a target without one is counted as
        ``uninjectable`` and the packet sails through, mirroring how a
        real flip on an unprotected wire goes unnoticed.
        """
        controller = self.controller
        now = controller.engine.now
        extra = 0
        dropped = False
        for state in self.rules:
            rule = state.rule
            if rule.tag != "*" and not fnmatchcase(tag, rule.tag):
                continue
            index = state.count
            state.count = index + 1
            if not state.lo <= now < state.hi:
                continue
            if state.packet_set:
                hit = index in state.packet_set
            elif rule.rate:
                hit = state.rng.random() < rule.rate
            else:
                hit = False
            if not hit:
                continue
            kind = rule.kind
            if kind == "delay":
                extra += state.delay_ticks
                controller.count("link_delays")
                controller.trace("link_delay", self.name,
                                 {"tag": tag, "ticks": state.delay_ticks})
                continue
            if dropped:
                continue
            target = arg if hasattr(arg, "link_fault") else deliver
            hook = getattr(target, "link_fault", None)
            if hook is None or not hook(kind):
                controller.count("uninjectable")
                controller.trace("link_uninjectable", self.name,
                                 {"tag": tag, "kind": kind})
                continue
            controller.count(f"link_{kind}s")
            controller.trace(f"link_{kind}", self.name, {"tag": tag})
            if kind == "drop":
                dropped = True
        return extra, dropped


class _DramRuleState:
    __slots__ = ("rule", "lo", "hi", "count", "rng", "read_set")

    def __init__(self, rule: DramFault, rng) -> None:
        self.rule = rule
        self.lo, self.hi = _window_ticks(rule.start_ns, rule.stop_ns)
        self.count = 0
        self.rng = rng
        self.read_set = frozenset(rule.reads)


class DramFaultSite:
    """Per-channel injector: transient flips on read completions."""

    __slots__ = ("controller", "name", "rules")

    def __init__(self, controller: "FaultController", name: str,
                 rules: List[DramFault]) -> None:
        self.controller = controller
        self.name = name
        self.rules = [
            _DramRuleState(
                rule, site_rng(controller.plan.seed, f"dram.{i}", name)
            )
            for i, rule in enumerate(rules)
        ]

    def maybe_flip(self, on_complete) -> None:
        """Consulted once per serviced read that has a completion."""
        controller = self.controller
        now = controller.engine.now
        for state in self.rules:
            index = state.count
            state.count = index + 1
            if not state.lo <= now < state.hi:
                continue
            if state.read_set:
                hit = index in state.read_set
            elif state.rule.rate:
                hit = state.rng.random() < state.rule.rate
            else:
                hit = False
            if not hit:
                continue
            mark = getattr(on_complete, "fault_mark_corrupt", None)
            if mark is not None and mark():
                controller.count("dram_flips")
                controller.trace("dram_flip", self.name, {})
            else:
                # A flip on a read nothing verifies (plain NS traffic):
                # silently wrong data, exactly what the threat model
                # predicts for unprotected tenants.
                controller.count("dram_flips_unprotected")
                controller.trace("dram_flip_unprotected", self.name, {})
            return


class SdFaultSite:
    """Stall windows / crash point for the secure delegator."""

    __slots__ = ("controller", "windows", "crash_tick")

    def __init__(self, controller: "FaultController") -> None:
        self.controller = controller
        self.windows = controller.plan.stall_windows()
        self.crash_tick = controller.plan.crash_tick()

    def blocked(self, now: int) -> Optional[Tuple[str, int]]:
        """``("crash", 0)``, ``("stall", end_tick)``, or ``None``."""
        crash = self.crash_tick
        if crash is not None and now >= crash:
            return ("crash", 0)
        for lo, hi in self.windows:
            if lo <= now < hi:
                return ("stall", hi)
            if lo > now:
                break
        return None

    def crashed(self, now: int) -> bool:
        return self.crash_tick is not None and now >= self.crash_tick


class FaultController:
    """One plan, bound to one simulation run."""

    def __init__(self, plan: FaultPlan, capture_commands: bool = False) -> None:
        self.plan = plan
        self.recovery = plan.recovery
        self.capture_commands = capture_commands
        self.engine = None
        self._tracer = NULL_TRACER
        #: Injection-side counters (created lazily on first fault).
        self.stats = StatSet("faults")
        #: Recovery-side StatSets registered by sessions/guards.
        self.registered: Dict[str, object] = {}
        #: ``channel name -> command log`` (``DramCommand``-shaped tuples)
        #: when capturing for the compliance referee.
        self.command_logs: Dict[str, list] = {}
        self._sd_site: Optional[SdFaultSite] = None

    # ------------------------------------------------------------------
    def bind(self, engine, tracer=None) -> None:
        if self.engine is not None and self.engine is not engine:
            raise RuntimeError(
                "FaultController is single-run; build a fresh one per run"
            )
        self.engine = engine
        self._tracer = (
            tracer if tracer is not None else NULL_TRACER
        ).category("fault")

    # ------------------------------------------------------------------
    # Site factories (None = nothing armed for that component)
    # ------------------------------------------------------------------
    def link_site(self, name: str) -> Optional[LinkFaultSite]:
        rules = [r for r in self.plan.link if r.matches_link(name)]
        if not rules:
            return None
        return LinkFaultSite(self, name, rules)

    def dram_site(self, name: str) -> Optional[DramFaultSite]:
        rules = [r for r in self.plan.dram if r.matches_channel(name)]
        if not rules:
            return None
        return DramFaultSite(self, name, rules)

    def sd_site(self) -> Optional[SdFaultSite]:
        if not self.plan.delegator:
            return None
        if self._sd_site is None:
            self._sd_site = SdFaultSite(self)
        return self._sd_site

    def arm_fabric(self, channels: Dict, bobs: Dict) -> None:
        """Arm every DRAM channel and serial link the plan names.

        ``channels`` maps ``(channel, subchannel)`` keys to DRAM
        channels, ``bobs`` channel ids to BOB channels (empty for the
        direct-attached architecture).  With ``capture_commands`` each
        channel also starts the command log the compliance referee reads.
        """
        for key in sorted(channels):
            channel = channels[key]
            site = self.dram_site(channel.name)
            if site is not None:
                channel.arm_faults(site)
            if self.capture_commands:
                self.command_logs[channel.name] = channel.start_command_log()
        for ch in sorted(bobs):
            bob = bobs[ch]
            for link in (bob.down, bob.up):
                site = self.link_site(link.name)
                if site is not None:
                    link.arm_faults(site)

    # ------------------------------------------------------------------
    # Bookkeeping shared by sites and recovery components
    # ------------------------------------------------------------------
    def count(self, name: str) -> None:
        self.stats.counter(name).add()

    def trace(self, name: str, track: str, args: Dict) -> None:
        if self._tracer.enabled:
            self._tracer.instant("fault", name, track, self.engine.now, args)

    def register_stats(self, name: str, stats) -> None:
        self.registered[name] = stats

    def summary(self) -> Dict[str, Dict[str, float]]:
        """All fault/recovery counters, for reports and SimResult."""
        out = {"faults": self.stats.as_dict()}
        for name, stats in sorted(self.registered.items()):
            out[name] = stats.as_dict()
        return out
