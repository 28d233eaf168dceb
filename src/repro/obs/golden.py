"""Golden-trace fixtures: fixed configs whose trace digests are pinned.

A golden run is one scheme simulated at a small fixed workload
(``libq`` @ :data:`GOLDEN_TRACE_LENGTH` accesses, default seed) with the
default trace categories.  Its digest captures the complete event-level
timing behaviour -- DRAM command order, link packet times, ORAM phase
boundaries -- so a cross-PR regression that preserves aggregate means but
reorders events still flips the digest and fails the suite loudly.  The
trace digest of every scheme in :func:`trace_pinned_schemes` is pinned,
in either periodic mode.

A payload pin is the sha256 of one untraced run's canonical
``SimResult.to_json_dict()`` at the same workload, for every scheme in
:data:`~repro.core.schemes.SCHEMES`: it pins what each scheme reports,
in either periodic mode, without committing a trace.

A shape pin is one named run of a shape the ``SCHEMES`` pins do not
reach -- several S-Apps or tenants on one delegator, several secure
channels, split trees with merged short reads, forked paths, a fault
plan, ORAM phases on a live lane group, a lane group woken by a
stalled phase, three split levels and the tree-top ablation's depths --
declared in :data:`SHAPE_RUNS` or :data:`SHAPE_SCENARIOS`.  Its
result digest (an untraced run's) and its trace digest are pinned, in
either periodic mode.

A command-log pin hashes every channel's captured DRAM command log in
one run of a :data:`COMMAND_LOG_PINS` shape, in either periodic mode.

When a timing change is *intentional*, regenerate the committed digests
with ``python tools/regen_goldens.py`` and include the updated
``tests/obs/golden_digests.json`` in the same commit, explaining the
change in its message (see README "Observability").
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.export import trace_digest
from repro.obs.tracer import Tracer

#: Schemes pinned by the golden suite: the on-chip baseline, stock
#: D-ORAM, the closed secure channel (D-ORAM/0), and one split level.
GOLDEN_SCHEMES: Tuple[str, ...] = ("baseline", "doram", "doram/0", "doram+1")

GOLDEN_BENCHMARK = "libq"
GOLDEN_TRACE_LENGTH = 300

#: Fault plans of the shape pins: copies of ``examples/faults/sd-crash.json``
#: and ``dram-flip.json``, inline so that editing an example cannot move
#: a pin.
_SD_CRASH_PLAN = {
    "seed": 1,
    "delegator": [{"kind": "crash", "start_ns": 3000.0}],
    "recovery": {"deadline_ns": 1500.0, "watchdog_misses": 2},
}
_DRAM_FLIP_PLAN = {
    "seed": 1,
    "dram": [{"kind": "flip", "channel": "ch*", "rate": 0.005}],
}

#: Scheme shape pins at the golden workload:
#: ``name -> (scheme, SystemConfig overrides, fault plan or None)``.
SHAPE_RUNS: Dict[str, Tuple[str, Dict[str, object], Optional[Dict]]] = {
    # Trees stacked on one SD, one sequencer across them.
    "doram-2s": ("doram", {"num_s_apps": 2}, None),
    "doram-3s-4ns": ("doram", {"num_s_apps": 3, "num_ns_apps": 4}, None),
    # Split trees stacked on the normal channels' remote region.
    "doram+2-2s-merge": (
        "doram+2", {"num_s_apps": 2, "merge_short_reads": True}, None,
    ),
    "doram-fork": ("doram", {"fork_path": True}, None),
    # Both sessions fail over: ``oram0.fb`` and ``oram1.fb`` are built.
    "doram-2s-sd-crash": ("doram", {"num_s_apps": 2}, _SD_CRASH_PLAN),
    # Per-block ``GuardedRead`` issue on every faulted sub-channel.
    "doram-dram-flip": ("doram", {}, _DRAM_FLIP_PLAN),
    # No NS traffic reaches the secure channel (``/0``), so its
    # sub-channels' lane group stays live: ORAM phases on a live group.
    "doram/0-2s-fork": (
        "doram/0", {"num_s_apps": 2, "fork_path": True}, None,
    ),
    "doram+2/0-merge": ("doram+2/0", {"merge_short_reads": True}, None),
    # Failover while the group is live; ``oram{i}.fb`` shares the
    # tree's layout.
    "doram/0-2s-sd-crash": ("doram/0", {"num_s_apps": 2}, _SD_CRASH_PLAN),
    # Three split levels (24-26 of a 27-level tree), all deeper than
    # the first subtree segment.
    "doram+3": ("doram+3", {}, None),
    # The tree-top ablation's depths, which move the first subtree
    # segment.
    "doram-tt0": ("doram", {"oram.treetop_levels": 0}, None),
    "baseline-tt6": ("baseline", {"oram.treetop_levels": 6}, None),
    # Lane shares on a live group with the segment moved.
    "doram/0-tt6": ("doram/0", {"oram.treetop_levels": 6}, None),
}

#: Shape pins whose command logs are pinned too: a woken lane group, each
#: lane logging its own commands (``doram-dram-flip``), and a live one,
#: its followers' logs written from the leader's (``doram/0-2s-fork``).
COMMAND_LOG_PINS: Tuple[str, ...] = ("doram-dram-flip", "doram/0-2s-fork")

#: Scenario shape pins: overrides on
#: :func:`repro.scenarios.service.golden_scenario_config`, in the dotted
#: grammar of :func:`repro.core.config.apply_overrides`.
SHAPE_SCENARIOS: Dict[str, Dict[str, object]] = {
    "scenario-2sd-3t": {"secure_channels": (0, 1), "num_tenants": 3},
    # ``sd2`` hosts no tenant; the sampler still reports it.
    "scenario-3sd-2t-snap": {
        "secure_channels": (0, 1, 2), "num_tenants": 2,
        "snapshot_interval_ns": 2000.0,
    },
    # 4-deep queues: the first read phase stalls, and the stalled pump's
    # ``notify_on_space`` wakes the lane group mid-phase.
    "scenario-l10-q4": {
        "oram.leaf_level": 10,
        "channel_params.read_queue_depth": 4,
        "channel_params.write_queue_depth": 4,
        "channel_params.write_drain_hi": 4,
        "channel_params.write_drain_lo": 2,
    },
}


def run_traced(
    scheme: str,
    benchmark: str = GOLDEN_BENCHMARK,
    trace_length: int = GOLDEN_TRACE_LENGTH,
    categories: Optional[Iterable[str]] = None,
    **overrides,
):
    """Run one scheme with tracing on; returns ``(result, tracer)``."""
    from repro.core.schemes import run_scheme

    tracer = Tracer(categories)
    result = run_scheme(
        scheme, benchmark, trace_length, tracer=tracer, **overrides
    )
    return result, tracer


def trace_pinned_schemes() -> Tuple[str, ...]:
    """Every scheme whose trace digest is pinned: :data:`GOLDEN_SCHEMES`,
    then the other :data:`~repro.core.schemes.SCHEMES` names."""
    from repro.core.schemes import SCHEMES

    return GOLDEN_SCHEMES + tuple(
        scheme for scheme in SCHEMES if scheme not in GOLDEN_SCHEMES
    )


def golden_digest(scheme: str, periodic: str = "lazy") -> str:
    """The trace digest of one golden run."""
    _result, tracer = run_traced(scheme, periodic=periodic)
    return trace_digest(tracer.events)


def payload_digest(scheme: str, periodic: str = "lazy") -> str:
    """sha256 of the canonical ``SimResult.to_json_dict()`` of one
    untraced run at the golden workload."""
    from repro.core.schemes import run_scheme

    result = run_scheme(scheme, GOLDEN_BENCHMARK, GOLDEN_TRACE_LENGTH,
                        periodic=periodic)
    return _digest(result.to_json_dict())


def _digest(payload) -> str:
    """sha256 of ``payload``'s canonical JSON."""
    from repro.analysis.sweep import canonical_json

    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def shape_names() -> Tuple[str, ...]:
    """Every shape pin: :data:`SHAPE_RUNS`, then :data:`SHAPE_SCENARIOS`."""
    return tuple(SHAPE_RUNS) + tuple(SHAPE_SCENARIOS)


def shape_digests(name: str, periodic: str = "lazy") -> Dict[str, str]:
    """One shape pin's digests: an untraced run's result digest
    (``"payload"``, or ``"report"`` for a scenario) and a traced run's
    ``"trace"`` digest."""
    if name in SHAPE_SCENARIOS:
        from repro.core.config import apply_overrides
        from repro.scenarios.service import (
            golden_scenario_config,
            run_scenario,
        )

        config = apply_overrides(golden_scenario_config(),
                                 SHAPE_SCENARIOS[name])
        tracer = Tracer()
        run_scenario(config, tracer=tracer, periodic=periodic)
        result = run_scenario(config, periodic=periodic)
        return {"report": result.report_digest(),
                "trace": trace_digest(tracer.events)}

    tracer = Tracer()
    _run_shape(name, periodic, tracer)
    result, _faults = _run_shape(name, periodic)
    return {"payload": _digest(result.to_json_dict()),
            "trace": trace_digest(tracer.events)}


def command_log_digest(name: str, periodic: str = "lazy") -> str:
    """One command-log pin: the digest of every channel's command log,
    entries as plain lists, in a run of shape pin ``name`` that captures
    commands (under an empty plan if the pin has none)."""
    _result, faults = _run_shape(name, periodic, capture=True)
    return _digest({channel: [list(entry) for entry in log]
                    for channel, log in faults.command_logs.items()})


def _run_shape(name: str, periodic: str, tracer=None, capture=False):
    """One run of scheme shape pin ``name``: ``(result, faults)``, the
    fault controller ``None`` unless the pin has a plan or captures."""
    from repro.core.schemes import run_scheme
    from repro.faults.inject import FaultController
    from repro.faults.plan import FaultPlan

    scheme, overrides, plan = SHAPE_RUNS[name]
    # A fault controller is single-run: one per simulation.
    faults = (FaultController(FaultPlan.from_json_dict(plan or {}), capture)
              if plan is not None or capture else None)
    result = run_scheme(scheme, GOLDEN_BENCHMARK, GOLDEN_TRACE_LENGTH,
                        tracer=tracer, faults=faults, periodic=periodic,
                        **overrides)
    return result, faults
