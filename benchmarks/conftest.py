"""Shared helpers for the benchmark harness.

Every ``bench_fig*.py`` regenerates one table/figure of the paper: it
runs the corresponding driver from :mod:`repro.analysis.experiments`
exactly once under pytest-benchmark (``pedantic(rounds=1)`` -- these are
simulations, not microbenchmarks) and prints the same rows the paper
plots, next to the paper's reference numbers where the paper states
them.

Scale knobs (environment), read here and only here -- ``src/`` reads
no environment, so every bench passes what these return as arguments:

* ``DORAM_TRACE_LENGTH`` -- memory accesses per core per run
  (default 2500; the paper used 500 M instructions);
* ``DORAM_BENCHMARKS``   -- comma-separated benchmark codes to restrict
  the workload set (default: all 15 of Table III);
* ``DORAM_BENCH_LABEL``  -- the label trajectory rows are appended
  under (default ``bench``; the schema refuses to re-measure a
  label+workload+config).

Results are cached in-process, so the whole suite shares runs (Fig. 9
reuses Fig. 11's sweep, etc.).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))


def bench_trace_length():
    """Memory accesses per core per run."""
    return int(os.environ.get("DORAM_TRACE_LENGTH", "2500"))


def bench_label():
    """Label for the trajectory rows the benches append."""
    return os.environ.get("DORAM_BENCH_LABEL", "bench")


def bench_benchmarks():
    """Benchmark codes the harness should sweep."""
    env = os.environ.get("DORAM_BENCHMARKS", "").strip()
    if env:
        return tuple(code.strip() for code in env.split(","))
    from repro.analysis.experiments import ALL_BENCHMARKS
    return ALL_BENCHMARKS


def print_rows(title, data, paper_note=""):
    """Uniform table printer for keyed {row: {col: value}} data."""
    print(f"\n=== {title} ===")
    if paper_note:
        print(f"    paper: {paper_note}")
    first = next(iter(data.values()))
    cols = list(first.keys())
    header = "row".ljust(8) + "".join(str(c).rjust(11) for c in cols)
    print(header)
    for key, row in data.items():
        line = str(key).ljust(8)
        for col in cols:
            value = row[col]
            if isinstance(value, bool):
                line += str(value).rjust(11)
            elif isinstance(value, float):
                line += f"{value:11.3f}"
            else:
                line += str(value).rjust(11)
        print(line)
