"""Workload traces.

The paper drives USIMM with the 2012 Memory Scheduling Championship traces
(500 M-instruction Simpoints of PARSEC, commercial, SPEC and BioBench
programs).  Those traces are not redistributable, so this package provides
a synthetic generator calibrated to Table III: each benchmark is a seeded
stochastic process with the paper's MPKI and a hand-assigned memory
personality (streaming vs. pointer-chasing, read/write mix, burstiness)
chosen to match the program's published behaviour.

DESIGN.md records this substitution: relative sensitivities (memory-hungry
programs suffer more from ORAM co-run) are preserved; absolute
per-benchmark slowdowns are not expected to match the paper's.
"""

from repro.trace.trace_format import TraceRecord
from repro.trace.synthetic import SyntheticTrace, TraceParams
from repro.trace.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_by_code,
    benchmark_trace,
)

__all__ = [
    "TraceRecord",
    "SyntheticTrace",
    "TraceParams",
    "BENCHMARKS",
    "BenchmarkSpec",
    "benchmark_by_code",
    "benchmark_trace",
]
