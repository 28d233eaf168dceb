"""Ablation: multiple protected tenants behind one SD (extension).

Section III-C motivates the tree split with a two-S-App deployment; this
sweep measures what tenant count costs.  The SD's single engine
serializes trees, so per-tenant ORAM latency grows ~linearly while the
fixed-rate guard keeps the co-runners' cost nearly flat.
"""

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme

BENCH = "li"


def test_tenant_count(benchmark):
    def sweep():
        out = {}
        for tenants in (1, 2, 3):
            result = run_scheme(
                "doram", BENCH, bench_trace_length(),
                num_ns_apps=4, num_s_apps=tenants,
            )
            out[f"{tenants}S"] = {
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_resp_ns": result.s_app["oram_response_ns"],
                "accesses": int(result.s_app["oram_accesses"]),
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: protected tenants per SD (4 NS-Apps, libq)",
               data)

    # SD serialization: per-access latency grows with tenant count.
    assert data["2S"]["oram_resp_ns"] > data["1S"]["oram_resp_ns"] * 1.3
    assert data["3S"]["oram_resp_ns"] > data["2S"]["oram_resp_ns"]
    # Co-runners stay within a modest envelope.
    assert data["3S"]["ns_time_us"] < data["1S"]["ns_time_us"] * 1.5
