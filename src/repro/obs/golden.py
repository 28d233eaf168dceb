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

When a timing change is *intentional*, regenerate the committed digests
with ``python tools/regen_goldens.py`` and include the updated
``tests/obs/golden_digests.json`` in the same commit, explaining the
change in its message (see README "Observability").
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional, Tuple

from repro.obs.export import trace_digest
from repro.obs.tracer import Tracer

#: Schemes pinned by the golden suite: the on-chip baseline, stock
#: D-ORAM, the closed secure channel (D-ORAM/0), and one split level.
GOLDEN_SCHEMES: Tuple[str, ...] = ("baseline", "doram", "doram/0", "doram+1")

GOLDEN_BENCHMARK = "libq"
GOLDEN_TRACE_LENGTH = 300


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
    payload = json.dumps(result.to_json_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

