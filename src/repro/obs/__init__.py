"""Observability: structured tracing, exporters, and golden-run digests.

``repro.obs`` is the substrate the regression suite stands on: the
:class:`~repro.obs.tracer.Tracer` collects typed events from every
timing-model layer, :mod:`repro.obs.export` renders them as JSONL or
Chrome ``trace_event`` JSON (Perfetto-loadable) and hashes them into a
stable content digest, :mod:`repro.obs.snapshot` samples StatSets over
time, and :mod:`repro.obs.leakage` checks the secure link's fixed-rate
timing-channel property straight from a trace.

Quick start::

    from repro.obs import Tracer, trace_digest, write_chrome_trace
    from repro.core.schemes import run_scheme

    tracer = Tracer()
    result = run_scheme("doram", "libq", 2000, tracer=tracer)
    print(trace_digest(tracer.events))
    write_chrome_trace(tracer.events, "doram.trace.json")

or from the shell: ``doram trace doram --out doram.trace.json``.
"""

from repro.obs.export import (
    canonical_line,
    chrome_trace,
    trace_digest,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.leakage import check_fixed_rate, secure_link_packets
from repro.obs.snapshot import StatsSampler
from repro.obs.tracer import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "ALL_CATEGORIES",
    "DEFAULT_CATEGORIES",
    "NULL_TRACER",
    "NullTracer",
    "StatsSampler",
    "TraceEvent",
    "Tracer",
    "canonical_line",
    "check_fixed_rate",
    "chrome_trace",
    "secure_link_packets",
    "trace_digest",
    "write_chrome_trace",
    "write_jsonl",
]
