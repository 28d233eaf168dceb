"""Ablation: delegation substrate -- BOB unit vs on-DIMM bridge (III-F).

The paper sketches an alternative that keeps the direct-attached
parallel interface: put the secure delegator in an on-DIMM bridge chip
(UDIC [11]).  It predicts the offload still works "but tends to
introduce higher overhead": the bridge commands only one channel's
devices, so the ORAM loses the secure channel's 4x internal sub-channel
bandwidth.  This bench quantifies both halves of that prediction.
"""

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme

BENCH = "li"


def test_udic_vs_bob(benchmark):
    def sweep():
        out = {}
        for label, scheme, kw in (
            ("baseline", "baseline", {}),
            ("doram", "doram", {}),
            ("udic", "udic", {}),
            ("udic/0", "udic", {"c_limit": 0}),
        ):
            result = run_scheme(
                scheme, BENCH, bench_trace_length(), **kw
            )
            out[label] = {
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_resp_ns": result.s_app.get("oram_response_ns", 0.0),
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: delegation substrate (libq)", data)

    # The bridge pays for losing the 4x sub-channel fan-out: its single
    # DRAM channel saturates under the ORAM, so (1) the S-App's accesses
    # stretch and (2) NS data resident on that channel is crushed --
    # naive UDIC is *worse* than the on-chip baseline.
    assert (data["udic"]["oram_resp_ns"]
            > 1.5 * data["doram"]["oram_resp_ns"])
    assert data["udic"]["ns_time_us"] > data["doram"]["ns_time_us"]
    # Keeping NS-Apps off the bridge channel (c=0) recovers the offload
    # benefit for the co-runners, confirming III-F's "possible" -- while
    # the S-App keeps paying the single-channel ORAM penalty, which is
    # the "higher overhead".
    assert (data["udic/0"]["ns_time_us"]
            < data["baseline"]["ns_time_us"])
    assert (data["udic/0"]["oram_resp_ns"]
            > 1.5 * data["doram"]["oram_resp_ns"])
