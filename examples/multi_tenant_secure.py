"""Scenario: two protected tenants behind one secure delegator.

Section III-C motivates the tree split with exactly this deployment:
"when running, e.g., two S-Apps and two NS-Apps in D-ORAM ... the two
S-Apps allocate all their data in the secure channel.  Therefore, the
secure channel tends to be under memory capacity pressure."

This example runs that system: two Path-ORAM-protected tenants, each
with its own tree, sharing the single SD (whose engine serializes their
accesses), next to co-running NS-Apps.  It shows

* the capacity pressure (two 4 GB trees = 8 GB on one channel's DIMMs,
  serving only 4 GB of user data) and how D-ORAM+k relieves it;
* the SD-serialization cost each tenant pays;
* that the co-runners barely notice the second tenant (the fixed-rate
  guard caps total ORAM intensity).

Run:  python examples/multi_tenant_secure.py
"""

from repro.core import run_scheme, split_space_shares
from repro.core.hardware import PAPER_BUDGET_MM2, size_delegator
from repro.oram.config import OramConfig

TRACE = 1000


def capacity_story() -> None:
    print("=" * 68)
    print("Capacity pressure: two tenants on one secure channel")
    print("=" * 68)
    tree = OramConfig()
    per_tree_gb = tree.tree_bytes / 2**30
    user_gb = tree.num_user_blocks * 64 / 2**30
    print(f"each tenant: {per_tree_gb:.0f} GB tree for {user_gb:.0f} GB of "
          f"user data (Path ORAM's ~50 % utilization)")
    print(f"two tenants need {2 * per_tree_gb:.0f} GB on the secure "
          f"channel's DIMMs alone")
    shares = split_space_shares(2)
    print(f"with D-ORAM+2, each expanded tree keeps only "
          f"{shares['secure']:.0%} of its blocks on the secure channel "
          f"({shares['normal']:.0%} per normal channel) -- the pressure "
          f"spreads out.\n")

    budget = size_delegator(tree, recursive_position_map=True)
    flat = size_delegator(tree)
    print(f"SD hardware check (Section III-E): with a recursive position "
          f"map the SD needs {budget.sram_bytes / 1024:.0f} KB of SRAM, "
          f"~{budget.area_mm2:.2f} mm^2, against the paper's "
          f"{PAPER_BUDGET_MM2:g} mm^2 envelope. (A flat map for a 4 GB "
          f"tree needs {flat.position_map_bytes / 2**20:.0f} MB, "
          f"~{flat.area_mm2:.0f} mm^2: the budget closes only with Path "
          f"ORAM's recursive position map.)\n")


def corun_story() -> None:
    print("=" * 68)
    print("Runtime: 1 vs 2 tenants (libq, 2 NS-Apps co-running)")
    print("=" * 68)
    one = run_scheme("doram", "li", TRACE, num_ns_apps=2)
    two = run_scheme("doram", "li", TRACE, num_ns_apps=2, num_s_apps=2)

    print(f"{'tenants':>8}{'NS time (us)':>14}{'ORAM resp (ns)':>16}"
          f"{'ORAM accesses':>15}")
    for label, run in (("1", one), ("2", two)):
        print(f"{label:>8}{run.ns_mean_ns() / 1000:>14.1f}"
              f"{run.s_app['oram_response_ns']:>16.0f}"
              f"{int(run.s_app['oram_accesses']):>15}")
    slow = two.s_app["oram_response_ns"] / one.s_app["oram_response_ns"]
    ns_cost = two.ns_mean_time() / one.ns_mean_time()
    print(f"\n-> each tenant's ORAM access takes {slow:.1f}x longer (the")
    print("   SD engine serializes the two trees), while the NS-Apps pay")
    print(f"   only {100 * (ns_cost - 1):.0f} % -- the fixed-rate guard")
    print("   caps the combined ORAM bandwidth regardless of tenant count.")


if __name__ == "__main__":
    capacity_story()
    corun_story()
