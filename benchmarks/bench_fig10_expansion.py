"""Fig. 10: Path ORAM tree expansion overhead.

Paper claims: relative to D-ORAM, k = 1/2/3 add +1.02 % / +2.01 % /
+3.29 % NS execution time (capacity grows 4 GB -> 8/16/32 GB).
"""

from conftest import bench_benchmarks, bench_trace_length, print_rows

from repro.analysis import experiments

PAPER = {"k1": 1.0102, "k2": 1.0201, "k3": 1.0329}


def test_fig10(benchmark):
    codes = bench_benchmarks()
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig10(codes, trace_length=length),
        rounds=1, iterations=1,
    )
    print_rows(
        "Fig. 10: D-ORAM+k time relative to D-ORAM", data,
        paper_note=", ".join(f"{k}={v}" for k, v in PAPER.items()),
    )
    gmean = data["gmean"]
    # Shape: expansion overhead is small (single-digit % in the paper)
    # and the shallowest split is not worse than the deepest one.  The
    # paper's per-k deltas (1-3 %) are below this model's run-to-run
    # noise at reduced trace lengths, so strict monotonicity in k is not
    # asserted.
    assert gmean["k1"] <= gmean["k3"] * 1.05
    for k in ("k1", "k2", "k3"):
        assert 0.95 < gmean[k] < 1.25
