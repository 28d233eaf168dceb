"""The experiment registry: every paper exhibit and ablation, declared once.

:data:`EXPERIMENTS` holds one :class:`Experiment` per Section V exhibit
(:data:`ALL_FIGURES`) and per design-choice ablation: its title, the
numbers the paper states, the run-points it needs, its driver, its one
table and its named :class:`Check` s.  ``doram exp``, ``sweep`` and
``report`` loop over it and regenerate through :func:`run_figures`:
:func:`figure_points` declares every run as a
:class:`~repro.analysis.sweep.RunPoint`, the sweep runner executes them
(serial, or a work-queue drain), and the drivers then read every run
from the sweep's results (:func:`runs_from`).  The sweep is the only
executor: a driver takes its runs as an argument, and a run it did not
declare is a ``KeyError``, not a silent simulation.  The exhibits
overlap heavily (Fig. 9's D-ORAM/X is the best point of Fig. 11's c
sweep, Fig. 13 reuses Fig. 9's runs, and the ablations share their
defaults' runs).

Scale: the paper simulates 500 M-instruction traces; every driver takes
``trace_length`` memory accesses per core as an argument (default
:data:`DEFAULT_TRACE_LENGTH`).  The shapes the drivers exist to
reproduce are stable in trace length; the integration tests assert that.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, \
    Sequence, Tuple, Union

from repro.analysis.metrics import summarize_best_worst_gmean
from repro.analysis.profiling import (PROFILE_SCHEMES, ProfileResult,
                                     profile_ratio)
from repro.analysis.sweep import (
    ResultStore,
    RunPoint,
    SweepFailure,
    SweepResult,
    dedup_points,
    run_sweep,
)
from repro.core.system import SimResult
from repro.core.tree_split import (
    TABLE_I,
    split_extra_messages,
    split_space_shares,
)
from repro.oram.config import OramConfig
from repro.oram.layout import OramLayout
from repro.sim.engine import ns
from repro.sim.stats import geomean
from repro.trace.benchmarks import BENCHMARKS


#: Memory accesses per core per run when a caller passes no length.
DEFAULT_TRACE_LENGTH = 2500

#: All Table III benchmark codes, in the paper's order.
ALL_BENCHMARKS: Tuple[str, ...] = tuple(b.code for b in BENCHMARKS)

#: A driver's runs: ``run(scheme, benchmark, trace_length, segment=0,
#: **overrides)`` returns that point's :class:`SimResult`.
Run = Callable[..., SimResult]


def runs_from(results: Mapping[RunPoint, SimResult]) -> Run:
    """The :data:`Run` that reads each point's result from ``results``;
    a point not in it raises ``KeyError``."""
    def run(scheme: str, benchmark: str, trace_length: int,
            segment: int = 0, **overrides) -> SimResult:
        return results[RunPoint(scheme, benchmark, trace_length, segment,
                                tuple(overrides.items()))]
    return run


def _benchmarks(benchmarks: Optional[Sequence[str]]) -> Tuple[str, ...]:
    return tuple(benchmarks) if benchmarks else ALL_BENCHMARKS


# ---------------------------------------------------------------------------
# Paper exhibits: one driver each (their titles live in the registry)
# ---------------------------------------------------------------------------

FIG4_SCHEMES = ("baseline", "securemem", "7ns-4ch", "7ns-3ch")


def fig4(
    run: Run,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> Dict[str, Dict[str, float]]:
    """NS-App execution-time slowdown vs. solo (1NS), per scheme.

    Returns ``{scheme: {benchmark: slowdown, ..., "best"/"worst"/"gmean"}}``
    -- the paper reports the three summary bars per scheme.
    """
    codes = _benchmarks(benchmarks)
    out: Dict[str, Dict[str, float]] = {}
    for scheme in FIG4_SCHEMES:
        rows: Dict[str, float] = {}
        for code in codes:
            solo = run("1ns", code, trace_length)
            corun = run(scheme, code, trace_length)
            rows[code] = corun.ns_mean_time() / solo.ns_mean_time()
        best, worst, gmean_v = summarize_best_worst_gmean(
            [rows[c] for c in codes]
        )
        rows["best"], rows["worst"], rows["gmean"] = best, worst, gmean_v
        out[scheme] = rows
    return out



def table1(leaf_level: int = 23) -> List[Dict[str, float]]:
    """Analytic + layout-measured Table I rows for k = 1, 2, 3."""
    rows: List[Dict[str, float]] = []
    for k in (1, 2, 3):
        shares = split_space_shares(k, leaf_level=leaf_level)
        messages = split_extra_messages(k)
        # Cross-check with the actual placement arithmetic on a scaled
        # tree (same share structure, cheap to enumerate).
        config = OramConfig(leaf_level=12 + k, treetop_levels=3,
                            subtree_levels=5)
        layout = OramLayout(
            config,
            home_targets=[(0, i) for i in range(4)],
            home_levels=config.num_levels - k,
            remote_targets=[(1, 0), (2, 0), (3, 0)],
        )
        measured = layout.channel_share()
        rows.append({
            "k": k,
            "secure_share": shares["secure"],
            "normal_share": shares["normal"],
            "paper_secure": TABLE_I[k]["secure"],
            "paper_normal": TABLE_I[k]["normal"],
            "layout_secure": measured.get(0, 0.0),
            "layout_normal": sum(
                v for ch, v in measured.items() if ch != 0
            ) / 3.0,
            "extra_secure_msgs": (
                messages.secure_short_reads
                + messages.secure_responses
                + messages.secure_writes
            ),
            "normal_msgs_min": 3 * messages.normal_min,
            "normal_msgs_max": 3 * messages.normal_max,
        })
    return rows



#: Fig. 8's benchmark when no ``--benchmarks`` are given (the paper's
#: libquantum; ``libq`` is an alias of the same trace).
FIG8_BENCHMARK = "li"
FIG8_SCHEMES = ("1ns", "7ns-4ch", "7ns-3ch", "doram")


def fig8(
    run: Run,
    benchmark: str = FIG8_BENCHMARK,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> Dict[str, float]:
    """Latency under channel partitioning and secure-channel contention."""
    solo = run("1ns", benchmark, trace_length)
    four = run("7ns-4ch", benchmark, trace_length)
    three = run("7ns-3ch", benchmark, trace_length)
    doram = run("doram", benchmark, trace_length)

    # Secure vs normal channel latency under D-ORAM (Fig. 8(c)).
    secure_rows = [
        row for name, row in doram.channels.items() if name.startswith("ch0")
    ]
    normal_rows = [
        row for name, row in doram.channels.items()
        if not name.startswith("ch0") and row["reads"] > 0
    ]

    def _weighted(rows: List[Dict[str, float]], field: str) -> float:
        total = sum(r["reads"] for r in rows)
        if total == 0:
            return 0.0
        return sum(r[field] * r["reads"] for r in rows) / total

    return {
        "solo_read_ns": solo.read_latency_ns(),
        "ns4ch_read_ns": four.read_latency_ns(),
        "ns3ch_read_ns": three.read_latency_ns(),
        "doram_secure_ch_read_ns": _weighted(secure_rows, "normal_read_ns"),
        "doram_normal_ch_read_ns": _weighted(normal_rows, "normal_read_ns"),
    }



def _c_sweep(row: Mapping[str, float]) -> List[float]:
    return [row[f"c{c}"] for c in range(8)]


def fig11(
    run: Run,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    c_values: Sequence[int] = tuple(range(8)),
) -> Dict[str, Dict[str, float]]:
    """Secure-channel sharing sweep: time vs. Baseline for c = 0..7.

    Returns ``{benchmark: {"c0".."c7": rel, "7ns-3ch": rel,
    "7ns-4ch": rel, "best_c": value}}``.
    """
    codes = _benchmarks(benchmarks)
    out: Dict[str, Dict[str, float]] = {}
    for code in codes:
        base = run("baseline", code, trace_length).ns_mean_time()
        row: Dict[str, float] = {}
        best_c, best_time = None, None
        for c in c_values:
            # c = 7 admits every NS-App, which is plain D-ORAM; use the
            # same run Fig. 9 uses.
            scheme = "doram" if c == 7 else f"doram/{c}"
            time_c = run(scheme, code, trace_length).ns_mean_time()
            row[f"c{c}"] = time_c / base
            if best_time is None or time_c < best_time:
                best_c, best_time = c, time_c
        row["7ns-3ch"] = (
            run("7ns-3ch", code, trace_length).ns_mean_time() / base
        )
        row["7ns-4ch"] = (
            run("7ns-4ch", code, trace_length).ns_mean_time() / base
        )
        row["best_c"] = float(best_c)
        out[code] = row
    return out


def fig9(
    run: Run,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> Dict[str, Dict[str, float]]:
    """Normalized execution time: D-ORAM, D-ORAM/X, D-ORAM+1, D-ORAM+1/4.

    D-ORAM/X is the best point of the Fig. 11 sweep (the paper's
    definition), so this reuses those runs.
    """
    codes = _benchmarks(benchmarks)
    sweep = fig11(run, codes, trace_length)
    out: Dict[str, Dict[str, float]] = {}
    for code in codes:
        base = run("baseline", code, trace_length).ns_mean_time()
        row = out[code] = {"baseline": 1.0, "doram": sweep[code]["c7"],
                           "doram_x": min(_c_sweep(sweep[code]))}
        for scheme in ("doram+1", "doram+1/4"):
            row[scheme] = (run(scheme, code, trace_length)
                           .ns_mean_time() / base)
    out["gmean"] = {key: geomean([out[code][key] for code in codes])
                    for key in out[codes[0]]}
    return out



def fig10(
    run: Run,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    k_values: Sequence[int] = (1, 2, 3),
) -> Dict[str, Dict[str, float]]:
    """Execution time of D-ORAM+k relative to D-ORAM, plus the average
    added overhead per k (the paper: +1.02 %, +2.01 %, +3.29 %)."""
    codes = _benchmarks(benchmarks)
    out: Dict[str, Dict[str, float]] = {}
    for code in codes:
        base = run("doram", code, trace_length).ns_mean_time()
        row = {"doram": 1.0}
        for k in k_values:
            row[f"k{k}"] = (
                run(f"doram+{k}", code, trace_length).ns_mean_time() / base
            )
        out[code] = row
    avg_row = {"doram": 1.0}
    for k in k_values:
        avg_row[f"k{k}"] = geomean([out[code][f"k{k}"] for code in codes])
    out["gmean"] = avg_row
    return out



def fig12(
    run: Run,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> Dict[str, Dict[str, object]]:
    """Per benchmark: profiled ratio (different segment) vs. measured best c.

    ``agrees`` is True when the rule's category (small: c < 4, large:
    c >= 4) matches the sweep's best configuration.
    """
    codes = _benchmarks(benchmarks)
    sweep = fig11(run, codes, trace_length)
    out: Dict[str, Dict[str, object]] = {}
    for code in codes:
        profile: ProfileResult = profile_ratio(
            code, trace_length=trace_length, segment=1, runner=run
        )
        best_c = int(sweep[code]["best_c"])
        # The measured preference compares the average of the small-c
        # half of the sweep against the large-c half; with the nearly
        # flat sweeps some benchmarks produce, the raw argmin is noise
        # while the half-means capture the paper's "prefers fewer/more
        # copies" categories robustly.
        small_mean = sum(sweep[code][f"c{c}"] for c in range(4)) / 4
        large_mean = sum(sweep[code][f"c{c}"] for c in range(4, 8)) / 4
        measured_category = "small" if small_mean < large_mean else "large"
        out[code] = {
            "ratio": profile.ratio,
            "predicted": profile.decision.category,
            "best_c": best_c,
            "measured": measured_category,
            "agrees": profile.decision.category == measured_category,
        }
    return out



def fig13(
    run: Run,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> Dict[str, Dict[str, float]]:
    """Read/write NS latency of D-ORAM+1 and D-ORAM/4 vs. Baseline."""
    codes = _benchmarks(benchmarks)
    out: Dict[str, Dict[str, float]] = {}
    for code in codes:
        base = run("baseline", code, trace_length)
        row: Dict[str, float] = {}
        for label, scheme in (("doram+1", "doram+1"), ("doram/4", "doram/4")):
            result = run(scheme, code, trace_length)
            row[f"{label}_read"] = (
                result.read_latency_ns() / base.read_latency_ns()
            )
            row[f"{label}_write"] = (
                result.write_latency_ns() / base.write_latency_ns()
            )
        out[code] = row
    out["gmean"] = {
        key: geomean([out[code][key] for code in codes])
        for key in next(iter(out.values())).keys()
    }
    return out


# ---------------------------------------------------------------------------
# Ablations -- the design choices of Sections III-IV and VI, one sweep each
# ---------------------------------------------------------------------------

#: The benchmark every ablation runs (libquantum; ``libq`` is its alias).
ABLATION_BENCHMARK = "li"

#: ``(row label, scheme, overrides)``; a default value is declared as no
#: override at all, so identical configurations share one run-point.
Variant = Tuple[str, str, Dict[str, object]]


def _secure_rows(result: SimResult) -> List[Dict[str, float]]:
    return [row for name, row in result.channels.items()
            if name.startswith("ch0")]


#: Ablation table columns: ``column(result, reference_result)``.
_COLUMNS: Dict[str, Callable[[SimResult, Optional[SimResult]], object]] = {
    "vs_baseline": lambda r, base: r.ns_mean_time() / base.ns_mean_time(),
    "read_lat_ns": lambda r, _base: r.read_latency_ns(),
    "ns_time_us": lambda r, _base: r.ns_mean_ns() / 1000,
    "oram_resp_ns": lambda r, _base: r.s_app.get("oram_response_ns", 0.0),
    "rowhit": lambda r, _base: sum(
        row["row_hit_rate"] for row in _secure_rows(r)) / 4,
    "accesses": lambda r, _base: int(r.s_app["oram_accesses"]),
    "oram_accesses": lambda r, _base: r.s_app["oram_accesses"],
    "real_frac": lambda r, _base: r.s_app["oram_real_fraction"],
    "blocks/access": lambda r, _base: r.config.oram.blocks_per_phase,
    "short_pkts": lambda r, _base: float(r.s_app["remote_short_reads"]),
    "rds_per_access": lambda r, _base: sum(
        row["secure_reads"] for row in _secure_rows(r)
    ) / r.s_app["oram_accesses"],
}

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


def _compare(column: str, a: str, op: str, b: str, factor: float = 1.0):
    """Predicate over an ablation's rows:
    ``out[a][column] <op> factor * out[b][column]``."""
    return lambda out: _OPS[op](out[a][column], factor * out[b][column])


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: A rendered table: ``(headers, rows)``; floats print with 3 decimals.
Table = Tuple[List[object], List[List[object]]]


@dataclass(frozen=True)
class Check:
    """One named shape claim: ``claim`` text plus a predicate over the
    experiment's output, rendered ``Shape (<claim>): REPRODUCED`` or
    ``Shape (<claim>): NOT reproduced``."""

    claim: str
    holds: Callable[[Any], bool]


#: A line under an experiment's table: a check, or prose ``note(output)``.
Note = Union[Check, Callable[[Any], str]]


@dataclass(frozen=True)
class Experiment:
    """One paper exhibit or ablation.

    ``points(benchmarks, trace_length)`` declares every run that
    ``driver(run, benchmarks, trace_length)`` reads through ``run``;
    ``table(output)`` is the one table it shows; ``notes`` are the lines
    under that table.
    """

    name: str
    title: str
    #: What the paper states about it, or ``""``.
    paper: str
    points: Callable[[Optional[Sequence[str]], int], List[RunPoint]]
    driver: Callable[[Run, Optional[Sequence[str]], int], Any]
    table: Callable[[Any], Table]
    notes: Tuple[Note, ...] = ()

    def verdicts(self, output: Any) -> List[Tuple[str, bool]]:
        """Every note's line and whether it holds (prose always does)."""
        lines = []
        for note in self.notes:
            if isinstance(note, Check):
                ok = bool(note.holds(output))
                state = "REPRODUCED" if ok else "NOT reproduced"
                lines.append((f"Shape ({note.claim}): {state}", ok))
            else:
                lines.append((note(output), True))
        return lines


def _keyed(data: Mapping[str, Mapping[str, object]]) -> Table:
    columns = list(next(iter(data.values())))
    return (["row"] + columns,
            [[key] + list(row.values()) for key, row in data.items()])


def _grid(schemes: Sequence[str]):
    """Points of a driver that runs ``schemes`` on every benchmark."""
    return lambda benchmarks=None, trace_length=DEFAULT_TRACE_LENGTH: [
        RunPoint(scheme, code, trace_length)
        for code in _benchmarks(benchmarks) for scheme in schemes
    ]


def fig8_benchmark(benchmarks: Optional[Sequence[str]]) -> str:
    """The first benchmark given, else :data:`FIG8_BENCHMARK`."""
    return benchmarks[0] if benchmarks else FIG8_BENCHMARK


#: Fig. 11's c sweep (c = 7 admits every NS-App: plain D-ORAM).
_FIG11_SCHEMES = (("baseline",) + tuple(f"doram/{c}" for c in range(7))
                  + ("doram", "7ns-3ch", "7ns-4ch"))


def _fig12_points(benchmarks=None, trace_length=DEFAULT_TRACE_LENGTH):
    return _grid(_FIG11_SCHEMES)(benchmarks, trace_length) + [
        RunPoint(scheme, code, trace_length, segment=1)
        for code in _benchmarks(benchmarks) for scheme in PROFILE_SCHEMES
    ]


def _fig4_shape(out) -> bool:
    base, three, four = (out[scheme]["gmean"]
                         for scheme in ("baseline", "7ns-3ch", "7ns-4ch"))
    return base > 1.4 and base > three >= four * 0.98 > 1.0


def _fig12_confident(out) -> bool:
    confident = [r for r in out.values() if abs(r["ratio"] - 1.0) > 0.05]
    return sum(r["agrees"] for r in confident) >= len(confident) * 0.6


def _ablation(
    name: str, title: str, paper: str, variants: Sequence[Variant],
    columns: Sequence[str], notes: Sequence[Note],
    reference: Optional[str] = None,
) -> Experiment:
    """An ablation on :data:`ABLATION_BENCHMARK`: one table row per
    variant, one :data:`_COLUMNS` entry per column; ``reference`` is
    the scheme a column normalizes by."""
    runs = ([(reference, {})] if reference else []) + [
        (scheme, overrides) for _label, scheme, overrides in variants
    ]

    def points(_benchmarks=None, trace_length=DEFAULT_TRACE_LENGTH):
        return [
            RunPoint(scheme, ABLATION_BENCHMARK, trace_length,
                     overrides=tuple(overrides.items()))
            for scheme, overrides in runs
        ]

    def driver(run, _benchmarks, trace_length):
        ref = (run(reference, ABLATION_BENCHMARK, trace_length)
               if reference else None)
        out = {}
        for label, scheme, overrides in variants:
            result = run(scheme, ABLATION_BENCHMARK, trace_length,
                         **overrides)
            out[label] = {col: _COLUMNS[col](result, ref) for col in columns}
        return out

    return Experiment(name, title, paper, points, driver, _keyed,
                      tuple(notes))


_FIGURES = (
    Experiment(
        "fig4", "Fig. 4 — motivation: co-run degradation vs solo",
        "Paper: 1S7NS (Path ORAM) averages +90.6 % NS execution time "
        "(worst 5.26x); 7NS-3ch ~+57 %; 7NS-4ch ~+43 %; secure memory in "
        "between.",
        _grid(("1ns",) + FIG4_SCHEMES), fig4,
        lambda out: _keyed({scheme: {k: rows[k] for k in
                                     ("best", "worst", "gmean")}
                            for scheme, rows in out.items()}),
        (Check("ORAM co-run ≫ partition > clean co-run > solo",
               _fig4_shape),),
    ),
    Experiment(
        "table1", "Table I — tree-split space shares & extra messages", "",
        lambda benchmarks=None, trace_length=None: [],
        lambda _run, _benchmarks, _trace_length: table1(),
        lambda rows: (
            ["k", "paper secure", "model secure", "layout secure",
             "paper normal", "model normal", "extra msgs (ch0)"],
            [[r["k"], r["paper_secure"], r["secure_share"],
              r["layout_secure"], r["paper_normal"], r["normal_share"],
              int(r["extra_secure_msgs"])] for r in rows]),
        (Check("exact match, analytic + measured layout",
               lambda rows: all(
                   abs(r["secure_share"] - r["paper_secure"]) < 1e-3
                   and abs(r["layout_normal"] - r["paper_normal"]) <= 0.01
                   for r in rows)),),
    ),
    Experiment(
        "fig8", "Fig. 8 — channel access-latency balance", "",
        lambda benchmarks=None, trace_length=DEFAULT_TRACE_LENGTH: [
            RunPoint(scheme, fig8_benchmark(benchmarks), trace_length)
            for scheme in FIG8_SCHEMES],
        lambda run, benchmarks, trace_length: fig8(
            run, fig8_benchmark(benchmarks), trace_length),
        lambda out: (["quantity", "latency (ns)"],
                     [[key, value] for key, value in out.items()]),
        (Check("fewer channels slower; secure channel slowest under D-ORAM",
               lambda o: (o["solo_read_ns"] < o["ns4ch_read_ns"]
                          <= o["ns3ch_read_ns"] * 1.02
                          and o["doram_secure_ch_read_ns"]
                          > o["doram_normal_ch_read_ns"])),),
    ),
    Experiment(
        "fig9", "Fig. 9 — normalized NS execution time (headline)",
        "Paper gmeans vs Baseline=1.0: D-ORAM 0.875, D-ORAM/X 0.775, "
        "D-ORAM+1 0.886, D-ORAM+1/4 0.814.",
        _grid(_FIG11_SCHEMES + ("doram+1", "doram+1/4")), fig9, _keyed,
        (Check("D-ORAM wins; tuning helps; +1 costs little",
               lambda o: (o["gmean"]["doram"] < 1.0
                          and o["gmean"]["doram_x"] <= o["gmean"]["doram"]
                          and o["gmean"]["doram+1"] < 1.0)),
         Check("D-ORAM+1 ≥ 0.97 × D-ORAM: the split buys capacity, "
               "not speed",
               lambda o: o["gmean"]["doram+1"]
               >= o["gmean"]["doram"] * 0.97),
         lambda o: "Measured gmeans: " + ", ".join(
             f"{name} {o['gmean'][key]:.3f}" for name, key in (
                 ("D-ORAM", "doram"), ("D-ORAM/X", "doram_x"),
                 ("D-ORAM+1", "doram+1"), ("D-ORAM+1/4", "doram+1/4")))),
    ),
    Experiment(
        "fig10", "Fig. 10 — tree expansion overhead",
        "Paper: k=1/2/3 add +1.02 %/+2.01 %/+3.29 % over D-ORAM.",
        _grid(("doram", "doram+1", "doram+2", "doram+3")), fig10,
        lambda out: _keyed({"gmean": out["gmean"]}),
        (Check("small overhead for exponential capacity",
               lambda o: all(0.95 < o["gmean"][f"k{k}"] < 1.25
                             for k in (1, 2, 3))),
         Check("k1 ≤ 1.05 × k3: the shallowest split is not the costliest",
               lambda o: o["gmean"]["k1"] <= o["gmean"]["k3"] * 1.05)),
    ),
    Experiment(
        "fig11", "Fig. 11 — secure-channel sharing sweep", "",
        _grid(_FIG11_SCHEMES), fig11, _keyed,
        (lambda _out: "Shape: best c is workload-dependent (paper: "
                      "bl/c2/mu prefer small c; le/li/st/ti prefer large).",
         Check("every c sweep dips below 1.05 × Baseline",
               lambda o: all(min(_c_sweep(r)) < 1.05 for r in o.values())),
         Check("best_c is each sweep's argmin",
               lambda o: all(r[f"c{int(r['best_c'])}"] == min(_c_sweep(r))
                             for r in o.values()))),
    ),
    Experiment(
        "fig12", "Fig. 12 — profiling rule vs measured best c", "",
        _fig12_points, fig12, _keyed,
        (lambda o: (f"Rule agreement: {sum(r['agrees'] for r in o.values())}"
                    f"/{len(o)} (paper: 14/15, with the one miss at ratio "
                    f"≈ 1)."),
         Check("the rule agrees on ≥ 60 % of benchmarks with "
               "|ratio − 1| > 0.05", _fig12_confident)),
    ),
    Experiment(
        "fig13", "Fig. 13 — NS access latency vs Baseline",
        "Paper: reads fall to ~70 % of Baseline, writes to ~48 %.",
        _grid(("baseline", "doram+1", "doram/4")), fig13, _keyed,
        (Check("both op types faster on average",
               lambda o: (o["gmean"]["doram/4_read"] < 1.0
                          and o["gmean"]["doram/4_write"] < 1.0)),
         Check("D-ORAM+1 reads faster on average",
               lambda o: o["gmean"]["doram+1_read"] < 1.0)),
    ),
)

_ABLATIONS = (
    _ablation(
        "link",
        "Ablation — BOB link round-trip latency (D-ORAM vs Baseline, li)",
        "Paper: 15 ns per round trip for the link bus and BOB control "
        "(Section IV, citing [10]).",
        [(f"{2 * one_way:.0f}ns_rt", "doram",
          {} if one_way == 7.5 else {"link_params.latency": ns(one_way)})
         for one_way in (2.5, 7.5, 25.0)],
        ("vs_baseline", "read_lat_ns"),
        [Check("slower links raise NS read latency: 5 ns < 50 ns round trip",
               _compare("read_lat_ns", "5ns_rt", "<", "50ns_rt")),
         Check("D-ORAM beats Baseline at the paper's 15 ns",
               lambda o: o["15ns_rt"]["vs_baseline"] < 1.0)],
        reference="baseline",
    ),
    _ablation(
        "share", "Ablation — secure-channel bandwidth share (D-ORAM, li)",
        "Paper: bandwidth preallocation [39] gives the ORAM 50 % of the "
        "secure channel's slots (Section IV).",
        [(f"sec={share}", "doram",
          {} if share == 0.5 else {"secure_share": share})
         for share in (0.2, 0.5, 0.8)],
        ("ns_time_us", "oram_resp_ns"),
        [Check("more ORAM slots never slow the ORAM: sec=0.8 ≤ 1.1 × "
               "sec=0.2",
               _compare("oram_resp_ns", "sec=0.8", "<=", "sec=0.2", 1.10))],
    ),
    _ablation(
        "subtree",
        "Ablation — subtree layout height (secure sub-channels, li)",
        "Paper: 7-level subtrees [32] turn a path access into row-buffer "
        "hits (Section IV).",
        [("h=1", "doram", {"oram.subtree_levels": 1}),
         ("h=7", "doram", {})],
        ("rowhit", "oram_resp_ns", "ns_time_us"),
        [Check("7-level subtrees hit rows more than level order",
               _compare("rowhit", "h=7", ">", "h=1"))],
    ),
    _ablation(
        "tenants", "Ablation — protected tenants per SD (4 NS-Apps, li)",
        "Not evaluated in the paper: Section III-C motivates the tree "
        "split with two S-Apps; one SD serializes their trees.",
        [(f"{n}S", "doram",
          dict(num_ns_apps=4, **({} if n == 1 else {"num_s_apps": n})))
         for n in (1, 2, 3)],
        ("ns_time_us", "oram_resp_ns", "accesses"),
        [Check("SD serialization: 2S ORAM latency > 1.3 × 1S",
               _compare("oram_resp_ns", "2S", ">", "1S", 1.3)),
         Check("3S ORAM latency > 2S",
               _compare("oram_resp_ns", "3S", ">", "2S")),
         Check("co-runners at 3S stay within 1.5 × 1S",
               _compare("ns_time_us", "3S", "<", "1S", 1.5))],
    ),
    _ablation(
        "gap", "Ablation — fixed-rate request gap t (D-ORAM, li)",
        "Paper: Section III-B picks t = 50.",
        [(f"t={t}", "doram", {} if t == 50 else {"t_cycles": t})
         for t in (0, 50, 400, 2000)],
        ("ns_time_us", "oram_accesses", "real_frac"),
        [Check("a larger t issues fewer ORAM accesses: t=2000 < t=0",
               _compare("oram_accesses", "t=2000", "<", "t=0")),
         Check("a larger t pads less: real fraction t=2000 ≥ t=0",
               _compare("real_frac", "t=2000", ">=", "t=0"))],
    ),
    _ablation(
        "treetop", "Ablation — tree-top cache depth (D-ORAM, li)",
        "Paper: the top 3 levels are cached on chip [32], so 21 of 24 "
        "levels are fetched per access (Section IV).",
        [(f"top{levels}", "doram",
          {} if levels == 3 else {"oram.treetop_levels": levels})
         for levels in (0, 3, 6)],
        ("blocks/access", "ns_time_us", "oram_resp_ns"),
        [Check("more cached levels shorten ORAM responses: top6 < top0",
               _compare("oram_resp_ns", "top6", "<", "top0")),
         Check("caching never costs co-runners more than 5 %",
               _compare("ns_time_us", "top6", "<=", "top0", 1.05))],
    ),
    _ablation(
        "udic",
        "Ablation — delegation substrate: BOB vs on-DIMM bridge (li)",
        "Paper (Section III-F): an on-DIMM bridge (UDIC [11]) can host "
        "the delegator but tends to introduce higher overhead.",
        [("baseline", "baseline", {}), ("doram", "doram", {}),
         ("udic", "udic", {}), ("udic/0", "udic", {"c_limit": 0})],
        ("ns_time_us", "oram_resp_ns"),
        [Check("UDIC's ORAM responses > 1.5 × D-ORAM's",
               _compare("oram_resp_ns", "udic", ">", "doram", 1.5)),
         Check("UDIC slows co-runners more than D-ORAM",
               _compare("ns_time_us", "udic", ">", "doram")),
         Check("UDIC/0 beats Baseline for co-runners",
               _compare("ns_time_us", "udic/0", "<", "baseline")),
         Check("UDIC/0's ORAM responses > 1.5 × D-ORAM's",
               _compare("oram_resp_ns", "udic/0", ">", "doram", 1.5))],
    ),
    _ablation(
        "merge", "Ablation — split-tree short-read merging (D-ORAM+2, li)",
        "Paper (footnote 1): merging the split tree's short read packets "
        "is future work.",
        [("separate", "doram+2", {}),
         ("merged", "doram+2", {"merge_short_reads": True})],
        ("ns_time_us", "oram_resp_ns", "short_pkts"),
        [Check("merging at least halves the short-read packets",
               _compare("short_pkts", "merged", "<", "separate", 0.5)),
         Check("merging keeps ORAM responses within 5 %",
               _compare("oram_resp_ns", "merged", "<=", "separate", 1.05)),
         lambda _out: "Why merged runs ship more than one packet per normal "
                      "channel (3 at k = 2) per access: remote reads and "
                      "writes share the SD's 16-chain REMOTE_WINDOW, so a "
                      "read phase often finds the previous access's 8 "
                      "remote writes still holding it, and its refused "
                      "reads leave later in packets of their own.  Merged "
                      "runs ship 3.56 packets per access at li/400 (171 for "
                      "48) and 3.45 at li/2500 (953 for 276); with the "
                      "window at 32, exactly 3.0 (135 for 45; 825 for "
                      "275)."],
    ),
    _ablation(
        "fork", "Ablation — Fork Path read merging (D-ORAM, li)",
        "Paper (Section VI): Fork Path [44] is related work, not "
        "evaluated.",
        [("fork_off", "doram", {}),
         ("fork_on", "doram", {"fork_path": True})],
        ("ns_time_us", "oram_resp_ns", "rds_per_access"),
        [Check("Fork Path cuts secure reads per access",
               _compare("rds_per_access", "fork_on", "<", "fork_off"))],
    ),
)

#: Every registered experiment, by name: exhibits first, then ablations.
EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp for exp in _FIGURES + _ABLATIONS
}

#: The paper's Section V exhibits (and Fig. 4's motivation), in order.
ALL_FIGURES: Tuple[str, ...] = tuple(exp.name for exp in _FIGURES)


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------


def figure_points(
    figure: str,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> List[RunPoint]:
    """Every simulation experiment ``figure`` needs, as run-points.

    The companion test suite cross-checks these declarations against
    the drivers: each driver runs over exactly these points' results.
    """
    if figure not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {figure!r} "
                         f"(known: {', '.join(EXPERIMENTS)})")
    return EXPERIMENTS[figure].points(benchmarks, trace_length)


def points_for_figures(
    figures: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
) -> List[RunPoint]:
    """Deduplicated union of run-points over several experiments."""
    points: List[RunPoint] = []
    for figure in figures:
        points.extend(figure_points(figure, benchmarks, trace_length))
    return dedup_points(points)


def run_figures(
    figures: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    timeout_s: Optional[float] = None,
    queue: Optional[str] = None,
) -> Tuple[Dict[str, object], SweepResult]:
    """Sweep every point the experiments need, then evaluate their drivers.

    Returns ``({name: driver_output}, sweep_result)``.  The sweep
    options mean what they mean to
    :func:`~repro.analysis.sweep.run_sweep`.  The drivers read the
    sweep's results (:func:`runs_from`), so after the sweep they are
    pure arithmetic.

    Raises :class:`~repro.analysis.sweep.SweepFailure` if any point
    failed even after the sweep's bounded retry: the drivers need every
    declared point.
    """
    points = points_for_figures(figures, benchmarks, trace_length)
    sweep_result = run_sweep(
        points, workers=workers, store=store, resume=resume,
        progress=progress, timeout_s=timeout_s, queue=queue,
    )
    if sweep_result.failed:
        raise SweepFailure(sweep_result)
    run = runs_from(sweep_result.results())
    outputs = {
        figure: EXPERIMENTS[figure].driver(run, benchmarks, trace_length)
        for figure in figures
    }
    return outputs, sweep_result
