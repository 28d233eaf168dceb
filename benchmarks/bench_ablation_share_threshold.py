"""Ablation: bandwidth-preallocation threshold ([39]; Section IV uses 50 %).

The threshold splits secure-channel scheduling slots between the ORAM
engine and co-located NS traffic.  Favoring NS-Apps speeds them up at
the S-App's expense, and vice versa -- the 50 % point balances the two
slowdowns, which is exactly why the paper picked it.
"""

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme

BENCH = "li"


def test_share_threshold(benchmark):
    def sweep():
        out = {}
        for share in (0.2, 0.5, 0.8):
            result = run_scheme(
                "doram", BENCH, bench_trace_length(),
                secure_share=share,
            )
            out[f"sec={share}"] = {
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_resp_ns": result.s_app["oram_response_ns"],
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: secure bandwidth share (D-ORAM, libq)", data)

    # Giving the ORAM more slots cannot make it slower.
    assert (data["sec=0.8"]["oram_resp_ns"]
            <= data["sec=0.2"]["oram_resp_ns"] * 1.10)
