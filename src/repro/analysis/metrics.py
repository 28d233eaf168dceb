"""Summary metrics used by the result figures and the SLO reports."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim.stats import Histogram, geomean

#: The scenario layer's SLO quantiles (p50 / p99 / p999).
SLO_QUANTILES: Tuple[float, ...] = (0.5, 0.99, 0.999)


def quantile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p999"``."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    return "p" + format(q * 100.0, "g").replace(".", "")


def latency_quantiles_ns(
    hist: Histogram,
    ticks_per_ns: int,
    quantiles: Sequence[float] = SLO_QUANTILES,
) -> Dict[str, float]:
    """SLO percentile summary of a tick-valued latency histogram.

    Quantiles resolve to bucket lower edges (exact integers), converted
    to nanoseconds -- deterministic floats, safe for canonical-JSON
    reports.
    """
    return {
        quantile_label(q): hist.quantile(q) / ticks_per_ns
        for q in quantiles
    }


def summarize_best_worst_gmean(
    values: Iterable[float],
) -> Tuple[float, float, float]:
    """(best, worst, gmean) of a slowdown population -- Fig. 4's bars.

    "Best" is the smallest slowdown (least degradation).
    """
    vals: List[float] = list(values)
    if not vals:
        raise ValueError("empty population")
    return min(vals), max(vals), geomean(vals)
