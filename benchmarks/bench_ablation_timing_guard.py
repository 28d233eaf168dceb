"""Ablation: the fixed-rate gap ``t`` (Section III-B chooses t = 50).

Smaller t = more aggressive dummy stream = stronger timing-channel cover
but more ORAM traffic; larger t starves the S-App.  This sweep exposes
the trade-off the paper's t = 50 sits on.
"""

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme

BENCH = "li"


def test_timing_guard_t(benchmark):
    def sweep():
        out = {}
        for t in (0, 50, 400, 2000):
            result = run_scheme(
                "doram", BENCH, bench_trace_length(), t_cycles=t,
            )
            out[f"t={t}"] = {
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_accesses": result.s_app["oram_accesses"],
                "real_frac": result.s_app["oram_real_fraction"],
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: request gap t (D-ORAM, libq)", data)

    # Larger t -> fewer ORAM accesses in the same wall-clock window.
    assert data["t=2000"]["oram_accesses"] < data["t=0"]["oram_accesses"]
    # And a higher fraction of them are real (less dummy padding).
    assert data["t=2000"]["real_frac"] >= data["t=0"]["real_frac"]
