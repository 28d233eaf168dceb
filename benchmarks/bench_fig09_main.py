"""Fig. 9: the headline result.

Paper claims (normalized NS execution time, Baseline = 1.0):
D-ORAM 0.875, D-ORAM/X 0.775 (the 22.5 % improvement), D-ORAM+1 0.886,
D-ORAM+1/4 0.814.
"""

from conftest import bench_benchmarks, bench_trace_length, print_rows

from repro.analysis import experiments

PAPER_GMEAN = {
    "doram": 0.875,
    "doram_x": 0.775,
    "doram+1": 0.886,
    "doram+1/4": 0.814,
}


def test_fig9(benchmark):
    codes = bench_benchmarks()
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig9(codes, trace_length=length),
        rounds=1, iterations=1,
    )
    print_rows(
        "Fig. 9: normalized NS execution time (Baseline = 1.0)", data,
        paper_note=", ".join(f"{k}={v}" for k, v in PAPER_GMEAN.items()),
    )
    gmean = data["gmean"]

    # Shape guards: D-ORAM wins over Baseline; tuning (X) at least
    # matches D-ORAM; +1 costs little over D-ORAM.
    assert gmean["doram"] < 1.0
    assert gmean["doram_x"] <= gmean["doram"] + 1e-9
    assert gmean["doram+1"] < 1.0
    assert gmean["doram+1"] >= gmean["doram"] * 0.97
