"""The end-to-end invariant harness: what must survive any fault plan.

Given a bounded :class:`~repro.faults.plan.FaultPlan`, one call to
:func:`check_fault_invariants` runs a full system simulation with the
plan armed and verifies every durability guarantee the recovery layer
promises:

1. **Termination** -- the simulation drains; no fault schedule may wedge
   the event loop or deadlock an NS core.
2. **DRAM protocol compliance** -- the implied command streams of every
   channel still pass the independent JEDEC referee
   (:class:`repro.dram.compliance.ProtocolChecker`); injection must not
   let the scheduler cut timing corners.
3. **Timing-channel discipline** -- on delegated schemes the secure
   link's request stream remains a deterministic function of the
   observable wire (:func:`repro.obs.leakage.check_recovery_discipline`),
   i.e. retransmission opened no new timing channel.
4. **Functional durability** -- a real Path ORAM over sealed buckets,
   fed transient flips at a rate matching the plan, returns the
   last-written value for every read, keeps every block on its assigned
   path, and stays within its stash bound
   (:func:`repro.faults.resilient.durability_check`).

This module is imported explicitly (``repro.faults.invariants``), not
re-exported from the package, because it pulls in the whole system
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.inject import FaultController
from repro.faults.plan import FaultPlan
from repro.faults.resilient import ResilientPathOram, durability_check
from repro.oram.config import OramConfig

#: Functional-model flip probability per bucket fetch when the plan has
#: any DRAM fault rule (the timing plan's exact rates target specific
#: channels; the functional oracle just needs a comparable fault load).
FUNCTIONAL_FLIP_RATE = 0.05


@dataclass
class InvariantReport:
    """Outcome of one harness run; ``ok`` means every invariant held."""

    scheme: str
    plan: FaultPlan
    violations: List[str] = field(default_factory=list)
    end_time: int = 0
    events: int = 0
    fault_summary: Optional[Dict[str, Dict[str, float]]] = None
    durability: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"[{status}] {self.scheme} under plan seed {self.plan.seed}:",
            f"  simulated to t={self.end_time} ({self.events} events)",
        ]
        if self.fault_summary:
            injected = self.fault_summary.get("faults", {})
            if injected:
                lines.append("  faults: " + ", ".join(
                    f"{k}={int(v)}" for k, v in sorted(injected.items())
                ))
        if self.durability:
            lines.append("  durability: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.durability.items())
            ))
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def check_fault_invariants(
    plan: FaultPlan,
    scheme: str = "doram",
    benchmark: str = "libq",
    trace_length: int = 300,
    functional_ops: int = 150,
    **overrides,
) -> InvariantReport:
    """Run ``scheme`` under ``plan`` and audit every invariant above."""
    # Deferred: this module sits below repro.core in the import order.
    from repro.core.schemes import run_scheme
    from repro.dram.compliance import ProtocolChecker
    from repro.obs.leakage import check_recovery_discipline
    from repro.obs.tracer import Tracer

    report = InvariantReport(scheme=scheme, plan=plan)
    controller = FaultController(plan, capture_commands=True)
    # The link audit (check 3) reads link events only.
    tracer = Tracer(("link",))

    # 1. Termination: build_and_run raises on deadlock or an exhausted
    # recovery bound; both are invariant violations, not crashes.
    try:
        result = run_scheme(
            scheme, benchmark, trace_length,
            tracer=tracer, faults=controller, **overrides,
        )
    except Exception as exc:  # noqa: BLE001 - every failure is a finding
        report.violations.append(
            f"simulation did not complete: {type(exc).__name__}: {exc}"
        )
        return report
    report.end_time = result.end_time
    report.events = result.events
    report.fault_summary = result.fault_summary

    # 2. DRAM protocol compliance over every captured command stream.
    timing = result.config.dram_timing
    num_banks = result.config.channel_params.num_banks
    checker = ProtocolChecker(timing, num_banks)
    for name in sorted(controller.command_logs):
        log = controller.command_logs[name]
        for violation in checker.check(log, strict=False):
            report.violations.append(f"dram {name}: {violation}")

    # 3. Secure-link timing discipline (delegated schemes only -- the
    # on-chip baseline has no secure link to audit).  Each session's
    # deadline scales with the sessions sharing the SD.
    if result.config.oram_placement == "delegated":
        for violation in check_recovery_discipline(
            tracer.events,
            secure_channel=result.config.secure_channel,
            t_cycles=result.config.t_cycles,
            deadline_ns=(plan.recovery.deadline_ns
                         * result.config.num_s_apps),
        ):
            report.violations.append(f"link: {violation}")

    # 4. Functional durability under a comparable transient-fault load.
    flip_rate = FUNCTIONAL_FLIP_RATE if plan.dram else 0.0
    oram = ResilientPathOram(
        OramConfig(leaf_level=5), seed=plan.seed, flip_rate=flip_rate,
        retry_limit=plan.recovery.block_read_retries,
    )
    try:
        report.durability = durability_check(
            oram, num_ops=functional_ops, seed=plan.seed
        )
    except Exception as exc:  # noqa: BLE001
        report.violations.append(
            f"durability: {type(exc).__name__}: {exc}"
        )
    return report
