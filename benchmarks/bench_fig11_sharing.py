"""Fig. 11: secure-channel sharing sweep (c = 0..7).

Paper claims: the best c is workload-dependent -- some programs (bl, c2,
mu) prefer small c (keep NS traffic off the secure channel), others (le,
li, st, ti) prefer large c (use all the bandwidth); 7NS-3ch / 7NS-4ch
are shown for reference.
"""

from conftest import bench_benchmarks, bench_trace_length, print_rows

from repro.analysis import experiments


def test_fig11(benchmark):
    codes = bench_benchmarks()
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig11(codes, trace_length=length),
        rounds=1, iterations=1,
    )
    print_rows("Fig. 11: time vs Baseline for c = 0..7", data)

    best_cs = {code: int(row["best_c"]) for code, row in data.items()}
    print(f"\nbest c per benchmark: {best_cs}")

    for code, row in data.items():
        sweep = [row[f"c{c}"] for c in range(8)]
        # Every sweep point must still beat or match Baseline closely --
        # D-ORAM never loses badly regardless of c.
        assert min(sweep) < 1.05
        # best_c really is the argmin.
        assert row[f"c{int(row['best_c'])}"] == min(sweep)
