"""Fig. 8: channel access-latency balance.

Paper claims: (a)/(b) fewer channels -> longer NS access latency;
(c) under D-ORAM the secure channel stays slower than the normal
channels (which motivates D-ORAM/c).
"""

from conftest import bench_trace_length, print_rows

from repro.analysis import experiments


def test_fig8(benchmark):
    length = bench_trace_length()
    data = benchmark.pedantic(
        lambda: experiments.fig8("libq", trace_length=length),
        rounds=1, iterations=1,
    )
    print_rows("Fig. 8: NS access latency (ns)", {"libq": data})

    # (a)/(b): channel partitioning costs latency.
    assert data["solo_read_ns"] < data["ns4ch_read_ns"]
    assert data["ns4ch_read_ns"] <= data["ns3ch_read_ns"] * 1.02
    # (c): the ORAM-loaded secure channel is the slow one.
    assert data["doram_secure_ch_read_ns"] > data["doram_normal_ch_read_ns"]
