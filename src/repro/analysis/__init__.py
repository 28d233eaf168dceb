"""Result processing: metrics, profiling, and experiment drivers.

* :mod:`~repro.analysis.metrics` -- slowdowns, normalization, geometric
  means (the paper's summary statistics);
* :mod:`~repro.analysis.profiling` -- the T25mix/T33 latency profiling of
  Section III-D / Fig. 12;
* :mod:`~repro.analysis.experiments` -- the experiment registry: one
  record per paper exhibit and per ablation (title, the paper's
  numbers, run-points, driver, table, checks), which ``doram exp``,
  ``sweep`` and ``report`` loop over (runs are memoised per process so
  Figs. 9, 11 and 13 reuse each other's runs; each driver takes its
  trace length as an argument);
* :mod:`~repro.analysis.report` -- renders the registry's tables and
  checks as EXPERIMENTS.md;
* :mod:`~repro.analysis.sweep` -- run-points, the content-addressed
  result store and :func:`~repro.analysis.sweep.run_sweep`, the one
  sweep entry point (serial in-process, or a work-queue drain);
* :mod:`~repro.analysis.workqueue` -- lease-arbitrated multi-worker
  drains of one sweep, private for ``workers > 1`` or shared through a
  queue directory (``doram sweep --queue/--join``);
* :mod:`~repro.analysis.trajectory` -- the ``BENCH_*.json`` append
  rules and ``python -m repro.analysis.trajectory --check``.  It is not
  imported here, so the ``-m`` form does not import it twice.
"""

from repro.analysis.metrics import (
    normalized_times,
    slowdown,
    summarize_best_worst_gmean,
)
from repro.analysis.profiling import ProfileResult, profile_ratio
from repro.analysis import experiments
from repro.analysis.workqueue import DrainResult, QueueStats, WorkQueue

__all__ = [
    "normalized_times",
    "slowdown",
    "summarize_best_worst_gmean",
    "ProfileResult",
    "profile_ratio",
    "experiments",
    "DrainResult",
    "QueueStats",
    "WorkQueue",
]
