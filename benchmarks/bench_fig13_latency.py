"""Fig. 13: NS-App memory access latency reduction.

Paper claims: with D-ORAM+1 / D-ORAM/4, NS read latency falls to ~70 %
of Baseline and write latency to ~48 %.
"""

from conftest import bench_benchmarks, bench_trace_length, print_rows

from repro.analysis import experiments

PAPER = {"read": 0.70, "write": 0.48}


def test_fig13(benchmark):
    codes = bench_benchmarks()
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig13(codes, trace_length=length),
        rounds=1, iterations=1,
    )
    print_rows(
        "Fig. 13: NS access latency vs Baseline", data,
        paper_note=f"read ~{PAPER['read']}, write ~{PAPER['write']}",
    )
    gmean = data["gmean"]
    # Shape: both optimized schemes reduce read and write latency on
    # average.  (The paper's per-op split -- writes dropping to ~48 % --
    # shows on the streaming benchmarks; pointer-chasers keep their
    # writes closer to baseline because their random-row writes share
    # drain windows with the ORAM's bursts.)
    assert gmean["doram/4_read"] < 1.0
    assert gmean["doram/4_write"] < 1.0
    assert gmean["doram+1_read"] < 1.0
