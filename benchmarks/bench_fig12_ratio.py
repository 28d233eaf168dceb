"""Fig. 12: the T25mix/T33 profiling rule vs the measured best c.

Paper claims: the profiled ratio (computed on a *different* trace
segment) predicts the best sharing category for 14 of 15 benchmarks (the
one exception, c2, sits at ratio ~1).
"""

from conftest import bench_benchmarks, bench_trace_length, print_rows

from repro.analysis import experiments


def test_fig12(benchmark):
    codes = bench_benchmarks()
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig12(codes, trace_length=length),
        rounds=1, iterations=1,
    )
    print_rows("Fig. 12: profiled ratio vs best c", data)

    agreements = sum(1 for row in data.values() if row["agrees"])
    total = len(data)
    print(f"\nrule agreement: {agreements}/{total} "
          f"(paper: 14/15, one near-1.0 exception)")

    # The rule must do clearly better than chance; benchmarks whose
    # ratio is within 5 % of 1.0 are legitimately ambiguous (the paper's
    # own exception c2 is exactly this case).
    confident = {
        code: row for code, row in data.items()
        if abs(row["ratio"] - 1.0) > 0.05
    }
    if confident:
        confident_hits = sum(1 for r in confident.values() if r["agrees"])
        assert confident_hits >= len(confident) * 0.6
