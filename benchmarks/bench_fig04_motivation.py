"""Fig. 4: NS-App performance degradation under co-run scenarios.

Paper claims: with 1S7NS (Path ORAM) the NS-Apps average 90.6 % execution
time overhead over solo (worst case 5.26x); 7NS-3ch shows 57 % slowdown,
7NS-4ch 43 %; the secure-memory model lands in between.
"""

from conftest import bench_benchmarks, bench_trace_length, print_rows

from repro.analysis import experiments

PAPER = {
    "baseline": "gmean ~1.906 (avg +90.6 %), worst 5.26x",
    "7ns-3ch": "gmean ~1.57",
    "7ns-4ch": "gmean ~1.43",
    "securemem": "between 7NS-4ch and Path ORAM",
}


def test_fig4(benchmark):
    codes = bench_benchmarks()
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig4(codes, trace_length=length),
        rounds=1, iterations=1,
    )
    summary = {
        scheme: {
            "best": rows["best"],
            "worst": rows["worst"],
            "gmean": rows["gmean"],
        }
        for scheme, rows in data.items()
    }
    print_rows(
        "Fig. 4: NS slowdown vs solo (1NS = 1.0)", summary,
        paper_note="; ".join(f"{k}: {v}" for k, v in PAPER.items()),
    )
    per_bench = {
        code: {scheme: data[scheme][code] for scheme in data}
        for code in codes
    }
    print_rows("Fig. 4 per-benchmark detail", per_bench)

    # Shape guards (who wins, roughly what factor).
    assert data["baseline"]["gmean"] > data["7ns-3ch"]["gmean"]
    assert data["7ns-3ch"]["gmean"] >= data["7ns-4ch"]["gmean"] * 0.98
    assert data["baseline"]["gmean"] > 1.4
