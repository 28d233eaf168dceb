"""Ablation: subtree layout height ([32]; Section IV uses 7-level subtrees).

The subtree packing is what turns a path access into row-buffer hits:
with height 1 the layout degenerates to level-order (every level a new
row region); with height 7 a path's blocks per sub-channel fall into ~1
row per subtree segment.
"""

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme
from repro.oram.config import OramConfig

BENCH = "li"


def test_subtree_height(benchmark):
    def sweep():
        out = {}
        for height in (1, 7):
            oram = OramConfig(subtree_levels=height)
            result = run_scheme(
                "doram", BENCH, bench_trace_length(), oram=oram,
            )
            secure_rows = [
                row for name, row in result.channels.items()
                if name.startswith("ch0")
            ]
            hit_rate = sum(r["row_hit_rate"] for r in secure_rows) / 4
            out[f"h={height}"] = {
                "rowhit": hit_rate,
                "oram_resp_ns": result.s_app["oram_response_ns"],
                "ns_time_us": result.ns_mean_ns() / 1000,
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: subtree height (secure sub-channels, libq)", data)

    # The 7-level packing must deliver more row hits than level-order.
    assert data["h=7"]["rowhit"] > data["h=1"]["rowhit"]
