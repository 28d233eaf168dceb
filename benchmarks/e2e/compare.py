"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (or first) set, ``B`` the change (or second); both are
JSON lists of run records written by ``run.py --out``.  Only untraced
runs count.  Each run contributes its median, so a set of ten runs gives
ten values per (metric, workload) pair.

For each pair the table shows both sides' median and quartiles
(``statistics.quantiles(n=4)``), B's change against A's median, the
spread (the wider side's interquartile range as a share of its median)
and the verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the spread is wider than the bound, so the pair can
  be read neither way, unless every B run is better than every A run;
  also when either side has no value for the pair;
* ``ok`` -- otherwise.

One more row gates the Fig. 9 accuracy of ``repro``: its
``paper_fig9_err`` is exact for a seed, so it is compared seed by seed
and regresses when any seed's error grows by more than
:data:`FIG9_ERR_TOLERANCE` (absolute).

Exits 1 when any pair regressed or any B run was incorrect, else 2 when
any pair is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
#: How much ``paper_fig9_err`` may grow on a seed before it regresses.
FIG9_ERR_TOLERANCE = 0.001


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, spread)`` of one (metric, workload) pair."""
    median_a = quartiles(a)[1]
    median_b = quartiles(b)[1]
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worse = change if better == "lower" else -change
    width = max(spread(a), spread(b))
    if width > bound:
        if better == "lower":
            b_wins = max(b) < min(a)
        else:
            b_wins = min(b) > max(a)
        return ("ok" if b_wins else "unresolved"), change, width
    return ("regressed" if worse > bound else "ok"), change, width


def values_by_pair(records: List[Dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record.get("trace"):
            continue
        for name, metric in record.get("metrics", {}).items():
            out.setdefault((record["workload"], name), []).append(
                float(metric["value"]))
    return out


def _empty_row(workload: str, metric: str, unit: str,
               bound: float) -> Dict[str, object]:
    return {"workload": workload, "metric": metric, "unit": unit,
            "bound": bound, "verdict": "unresolved", "a": None, "b": None,
            "change": None, "spread": None}


def fig9_rows(a_records: List[Dict],
              b_records: List[Dict]) -> List[Dict[str, object]]:
    """The seed-by-seed ``paper_fig9_err`` row of each workload that
    reports it."""
    def by_workload(records):
        out: Dict[str, Dict[int, float]] = {}
        for record in records:
            if not record.get("trace") and "paper_fig9_err" in record:
                out.setdefault(record["workload"], {})[record["seed"]] = \
                    float(record["paper_fig9_err"])
        return out

    a_errs, b_errs = by_workload(a_records), by_workload(b_records)
    rows = []
    for workload in sorted(set(a_errs) | set(b_errs)):
        row = _empty_row(workload, "paper_fig9_err", "abs",
                         FIG9_ERR_TOLERANCE)
        a, b = a_errs.get(workload, {}), b_errs.get(workload, {})
        seeds = sorted(set(a) & set(b))
        if seeds:
            worst = max(b[s] - a[s] for s in seeds)
            row.update(
                verdict="regressed" if worst > FIG9_ERR_TOLERANCE else "ok",
                a=quartiles([a[s] for s in seeds]),
                b=quartiles([b[s] for s in seeds]),
                change=worst, spread=0.0, n=(len(seeds), len(seeds)))
        rows.append(row)
    return rows


def compare(a_records: List[Dict], b_records: List[Dict],
            end_to_end: List[Dict]) -> List[Dict[str, object]]:
    """One row per (workload, end-to-end metric), workloads in A's order,
    then the Fig. 9 accuracy rows."""
    a_values = values_by_pair(a_records)
    b_values = values_by_pair(b_records)
    workloads: List[str] = []
    for record in a_records + b_records:
        if record["workload"] not in workloads:
            workloads.append(record["workload"])
    rows = []
    for workload in workloads:
        for metric in end_to_end:
            key = (workload, metric["name"])
            row = _empty_row(workload, metric["name"], metric["unit"],
                             metric["bound"])
            a, b = a_values.get(key), b_values.get(key)
            if a and b:
                result, change, width = verdict(a, b, metric["better"],
                                                metric["bound"])
                row.update(verdict=result, a=quartiles(a), b=quartiles(b),
                           change=change, spread=width, n=(len(a), len(b)))
            rows.append(row)
    return rows + fig9_rows(a_records, b_records)


def _quartile_cell(q: Optional[Tuple[float, float, float]]) -> str:
    if q is None:
        return "-"
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        "| workload | metric | A median [q1, q3] | B median [q1, q3] "
        "| change | spread | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        absolute = row["unit"] == "abs"
        if row["change"] is None:
            change = "-"
        elif absolute:
            change = f"{row['change']:+.4f}"
        else:
            change = f"{row['change'] * 100:+.1f} %"
        width = ("-" if row["spread"] is None
                 else f"{row['spread'] * 100:.1f} %")
        bound = (f"{row['bound']:.3f}" if absolute
                 else f"{row['bound'] * 100:.0f} %")
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) "
            f"| {_quartile_cell(row['a'])} | {_quartile_cell(row['b'])} "
            f"| {change} | {width} | {bound} | {row['verdict']} |"
        )
    return "\n".join(lines)


def _load(path: str):
    with open(path) as fp:
        return json.load(fp)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent (first) set of run records")
    parser.add_argument("b", help="change (second) set of run records")
    args = parser.parse_args(argv)
    end_to_end = _load(BENCHMARK)["end_to_end"]
    a_records, b_records = _load(args.a), _load(args.b)
    rows = compare(a_records, b_records, end_to_end)
    print(render(rows))
    incorrect = [r for r in b_records if not r.get("correct")]
    for record in incorrect:
        print(f"B run incorrect: {record['workload']} seed {record['seed']}: "
              f"{record['failed']}/{record['attempted']} failed")
    verdicts = {row["verdict"] for row in rows}
    if "regressed" in verdicts or incorrect:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
