"""Ablation: tree-top cache depth (design choice from [32], Section IV).

The paper caches the top 3 levels (21 of 24 levels fetched per access).
This sweep shows why: each cached level removes Z blocks from every
path access, cutting ORAM bandwidth demand and thus NS interference.
"""

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme
from repro.oram.config import OramConfig

BENCH = "li"


def test_treetop_depth(benchmark):
    def sweep():
        out = {}
        for levels in (0, 3, 6):
            oram = OramConfig(treetop_levels=levels)
            result = run_scheme(
                "doram", BENCH, bench_trace_length(), oram=oram,
            )
            out[f"top{levels}"] = {
                "blocks/access": oram.blocks_per_phase,
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_resp_ns": result.s_app["oram_response_ns"],
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: tree-top cache depth (D-ORAM, libq)", data)

    # More cached levels -> shorter ORAM responses.
    assert data["top6"]["oram_resp_ns"] < data["top0"]["oram_resp_ns"]
    # And never hurts the co-runners.
    assert data["top6"]["ns_time_us"] <= data["top0"]["ns_time_us"] * 1.05
