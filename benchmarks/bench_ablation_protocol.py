"""Ablation: ORAM protocol alternatives from the related work (Section VI).

Two comparisons the paper mentions but does not evaluate:

* **Ring ORAM** -- protocol-level bandwidth reduction: amortized physical
  blocks per access vs Path ORAM, measured on the functional layer.
* **Fork Path** [44] -- read merging across consecutive path accesses,
  measured in the timing engine.  With uniformly random paths and the
  3-level tree-top cache, the exploitable overlap below the cache is
  tiny -- this bench quantifies exactly how much the tree-top cache
  subsumes Fork Path's opportunity.
"""

import random

from conftest import bench_trace_length, print_rows

from repro.core.schemes import run_scheme
from repro.oram.config import OramConfig
from repro.oram.path_oram import PathOram
from repro.oram.ring_oram import RingOram


def test_ring_vs_path_bandwidth(benchmark):
    def measure():
        cfg = OramConfig(leaf_level=8, treetop_levels=0, subtree_levels=2)
        ring = RingOram(cfg, seed=1)
        rng = random.Random(1)
        ops = [rng.randrange(cfg.num_user_blocks) for _ in range(400)]
        for b in ops:
            ring.read(b)
        path_blocks = 2 * cfg.bucket_size * cfg.num_levels
        return {
            "path_oram": {"blocks/access": float(path_blocks)},
            "ring_oram": {"blocks/access": ring.amortized_blocks_per_access()},
        }

    data = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_rows("Ablation: protocol bandwidth (functional, L=8, Z=4)", data)
    assert (data["ring_oram"]["blocks/access"]
            < data["path_oram"]["blocks/access"])


def test_short_read_merging(benchmark):
    """Footnote 1 of the paper: merge split-tree read packets.

    With k=2, plain D-ORAM+2 ships 8 short read packets per access over
    the secure link; merging coalesces them to <= 3 (one per normal
    channel), trimming link occupancy at zero protocol cost.
    """

    def measure():
        out = {}
        for label, merge in (("separate", False), ("merged", True)):
            result = run_scheme(
                "doram+2", "li", bench_trace_length(),
                merge_short_reads=merge,
            )
            out[label] = {
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_resp_ns": result.s_app["oram_response_ns"],
                "short_pkts": float(result.s_app["remote_short_reads"]),
            }
        return out

    data = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_rows("Ablation: split-tree read-packet merging (D-ORAM+2)", data)

    # >= 8/3 reduction in packet count; never slower for the S-App.
    assert data["merged"]["short_pkts"] < 0.5 * data["separate"]["short_pkts"]
    assert (data["merged"]["oram_resp_ns"]
            <= data["separate"]["oram_resp_ns"] * 1.05)


def test_fork_path_in_doram(benchmark):
    def measure():
        out = {}
        for label, fork in (("off", False), ("on", True)):
            result = run_scheme(
                "doram", "li", bench_trace_length(),
                fork_path=fork,
            )
        # Report the last (fork=on) run's skip counter relative to the
        # traffic it saved from.
            secure_reads = sum(
                row["secure_reads"] for name, row in result.channels.items()
                if name.startswith("ch0")
            )
            out[f"fork_{label}"] = {
                "ns_time_us": result.ns_mean_ns() / 1000,
                "oram_resp_ns": result.s_app["oram_response_ns"],
                "rds_per_access": secure_reads / result.s_app["oram_accesses"],
            }
        return out

    data = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_rows("Ablation: Fork Path read merging (D-ORAM, libq)", data)
    # Fork Path removes the overlapping prefix's reads from each access
    # (totals across runs differ because faster accesses mean *more*
    # accesses in the same window -- hence the per-access metric).
    assert (data["fork_on"]["rds_per_access"]
            < data["fork_off"]["rds_per_access"])
