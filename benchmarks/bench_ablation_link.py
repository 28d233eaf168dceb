"""Ablation: BOB link latency (the paper charges 15 ns, citing [10]).

D-ORAM taxes every NS access on the BOB links; this sweep quantifies how
sensitive the headline result is to that constant.
"""

from conftest import bench_trace_length, print_rows

from repro.bob.link import LinkParams
from repro.core.schemes import run_scheme
from repro.sim.engine import ns

BENCH = "li"


def test_link_latency(benchmark):
    def sweep():
        base = run_scheme(
            "baseline", BENCH, bench_trace_length()
        ).ns_mean_time()
        out = {}
        for one_way_ns in (2.5, 7.5, 25.0):
            params = LinkParams(latency=ns(one_way_ns))
            result = run_scheme(
                "doram", BENCH, bench_trace_length(),
                link_params=params,
            )
            out[f"{2 * one_way_ns:.0f}ns_rt"] = {
                "vs_baseline": result.ns_mean_time() / base,
                "read_lat_ns": result.read_latency_ns(),
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: link round-trip latency (D-ORAM vs Baseline)",
               data)

    # Slower links erode the win monotonically.
    assert (data["5ns_rt"]["read_lat_ns"]
            < data["50ns_rt"]["read_lat_ns"])
    # At the paper's 15 ns, D-ORAM still wins.
    assert data["15ns_rt"]["vs_baseline"] < 1.0
