"""Scenario x faults integration: armed plans never change *results*.

Extends the tenant-isolation regression with hardware-level fault plans
(PR 5's ``repro.faults``) armed on the scenario fabric:

* an armed-but-**empty** plan must leave the whole stored payload --
  ``report_digest()`` -- bit-identical to a bare run (the recovery
  framing is schedule-neutral, pinned here at the service layer);
* link corruption and DRAM bit-flips may move per-tenant **timing**
  digests (retransmits and re-reads shift the schedule) but never the
  **functional** digests: every tenant still gets exactly the data it
  asked for, in its own completion order.

Load is kept modest (read-only, generous queue) so no run sheds work at
admission -- a timing-dependent overflow would legitimately shift seqs
and void the functional comparison; the ``rejected_overflow == 0``
guard asserts the precondition explicitly.
"""

import pytest

from repro.faults import DramFault, FaultPlan, LinkFault
from repro.faults.inject import FaultController
from repro.oram.config import OramConfig
from repro.scenarios import ArrivalSpec, ScenarioConfig, run_scenario

ORAM = OramConfig(leaf_level=12)
HORIZON_NS = 20_000.0


def _config(num_tenants=3, **kw):
    return ScenarioConfig(
        num_tenants=num_tenants,
        horizon_ns=HORIZON_NS,
        oram=ORAM,
        seed=11,
        queue_cap=256,
        **kw,
    )


@pytest.fixture(scope="module")
def bare():
    return run_scenario(_config())


@pytest.fixture(scope="module")
def link_faulted():
    plan = FaultPlan(
        seed=3,
        link=(
            LinkFault(kind="corrupt", link="bob0.down", rate=0.05),
            LinkFault(kind="delay", link="bob0.up", rate=0.05,
                      delay_ns=40.0),
        ),
    )
    return run_scenario(_config(), faults=FaultController(plan))


@pytest.fixture(scope="module")
def dram_faulted():
    plan = FaultPlan(seed=3, dram=(DramFault(channel="ch0*", rate=0.01),))
    return run_scenario(_config(), faults=FaultController(plan))


def _no_shedding(result):
    return all(
        int(row["rejected_overflow"]) == 0
        and int(row["rejected_shed"]) == 0
        for row in result.tenants.values()
    )


class TestArmedEmpty:
    def test_payload_bit_identical_to_bare(self, bare):
        armed = run_scenario(_config(), faults=FaultController(FaultPlan()))
        assert armed.report_digest() == bare.report_digest()

    def test_summary_reports_quiet_sessions(self):
        armed = run_scenario(_config(), faults=FaultController(FaultPlan()))
        assert armed.fault_summary["faults"] == {}
        # One recovery session per tenant was armed (and stayed quiet).
        sessions = [k for k in armed.fault_summary if k.startswith("sdlink")]
        assert len(sessions) == 3

    def test_backlogged_delegator_is_not_a_dead_one(self):
        """32 tenants share one SD, which serves their requests FIFO, so
        a healthy response can wait behind 31 others -- longer than one
        flat ``deadline_ns``.  The deadline scales with the sessions on
        the SD, so an empty plan still fires no timeout and stays
        bit-identical to the bare run."""
        config = ScenarioConfig(
            num_tenants=32, horizon_ns=HORIZON_NS, oram=ORAM, seed=3,
            arrival=ArrivalSpec(rate_rps=400_000.0),
        )
        bare = run_scenario(config)
        armed = run_scenario(config, faults=FaultController(FaultPlan()))
        assert armed.report_digest() == bare.report_digest()
        assert armed.raw_events == bare.raw_events
        assert armed.fault_summary["faults"] == {}
        timeouts = sum(
            stats.get("timeouts", 0)
            for name, stats in armed.fault_summary.items()
            if name.startswith("sdlink")
        )
        assert timeouts == 0


class TestLinkFaults:
    def test_faults_actually_fired(self, link_faulted):
        assert link_faulted.fault_summary["faults"].get(
            "link_corrupts", 0) > 0

    def test_no_admission_shedding(self, bare, link_faulted):
        assert _no_shedding(bare) and _no_shedding(link_faulted)

    def test_functional_digests_invariant(self, bare, link_faulted):
        for tenant, row in bare.tenants.items():
            assert (link_faulted.tenants[tenant]["functional_digest"]
                    == row["functional_digest"])

    def test_timing_digest_moves(self, bare, link_faulted):
        assert any(
            link_faulted.tenants[t]["timing_digest"]
            != bare.tenants[t]["timing_digest"]
            for t in bare.tenants
        )


class TestDramFaults:
    def test_faults_actually_fired(self, dram_faulted):
        fired = dram_faulted.fault_summary["faults"]
        assert fired.get("dram_flips", 0) > 0
        assert fired.get("block_rereads", 0) > 0

    def test_no_admission_shedding(self, dram_faulted):
        assert _no_shedding(dram_faulted)

    def test_functional_digests_invariant(self, bare, dram_faulted):
        for tenant, row in bare.tenants.items():
            assert (dram_faulted.tenants[tenant]["functional_digest"]
                    == row["functional_digest"])

    def test_completions_exposed_for_scoring(self, dram_faulted):
        for tenant, row in dram_faulted.tenants.items():
            ticks = dram_faulted.tenant_completions[tenant]
            assert len(ticks) == int(row["completed"])
            assert all(sojourn >= 0 for _, sojourn in ticks)
