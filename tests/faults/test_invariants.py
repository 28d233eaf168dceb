"""Property tests: *arbitrary* bounded fault plans keep every guarantee.

The scenario tests pin known-good plans; this suite lets hypothesis
draw seeded plans from the whole bounded DSL -- random mixes of link
corrupt/drop/delay rules, DRAM flip rates, stall windows -- and asserts
the end-to-end invariant harness (:mod:`repro.faults.invariants`) holds
for every one of them: the run terminates, the DRAM referee stays green,
the secure link's send schedule remains wire-deterministic, and the
functional ORAM returns the last written value for every read.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.faults import (  # noqa: E402
    DelegatorFault,
    DramFault,
    FaultPlan,
    LinkFault,
    RecoveryParams,
)
from repro.dram.channel import Channel  # noqa: E402
from repro.dram.compliance import DramCommand  # noqa: E402
from repro.faults.invariants import check_fault_invariants  # noqa: E402

# Bounded rule strategies.  Rates are kept low enough that a 300-access
# run still completes within the retry bounds (that is the *bounded*
# part of the contract); windows live inside the ~12 us the run spans.
_link_rule = st.builds(
    LinkFault,
    kind=st.sampled_from(("corrupt", "drop", "delay")),
    link=st.sampled_from(("bob0.down", "bob0.up", "bob*.down", "bob*.up")),
    tag=st.just("raw"),
    rate=st.floats(min_value=0.0, max_value=0.05),
    packets=st.lists(
        st.integers(min_value=0, max_value=40), max_size=2
    ).map(tuple),
    delay_ns=st.floats(min_value=5.0, max_value=60.0),
)

_dram_rule = st.builds(
    DramFault,
    channel=st.sampled_from(("ch0*", "ch*", "ch1*")),
    rate=st.floats(min_value=0.0, max_value=0.02),
    reads=st.lists(
        st.integers(min_value=0, max_value=200), max_size=2
    ).map(tuple),
)

_stall_rule = st.builds(
    DelegatorFault,
    kind=st.just("stall"),
    start_ns=st.floats(min_value=0.0, max_value=8000.0),
    duration_ns=st.floats(min_value=10.0, max_value=1500.0),
)

_plan = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    link=st.lists(_link_rule, max_size=2).map(tuple),
    dram=st.lists(_dram_rule, max_size=1).map(tuple),
    delegator=st.lists(_stall_rule, max_size=1).map(tuple),
    recovery=st.just(RecoveryParams()),
)


class TestArbitraryPlans:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=_plan)
    def test_bounded_plans_keep_every_invariant(self, plan):
        report = check_fault_invariants(plan, functional_ops=80)
        assert report.ok, report.describe()
        assert report.end_time > 0

    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_empty_plan_holds_under_any_seed(self, seed):
        report = check_fault_invariants(
            FaultPlan(seed=seed), functional_ops=60
        )
        assert report.ok, report.describe()
        summary = report.fault_summary
        assert all(v == 0 for v in summary["faults"].values())


class TestHarnessReporting:
    def test_crash_plan_passes_with_tuned_watchdog(self):
        plan = FaultPlan(
            delegator=(DelegatorFault(kind="crash", start_ns=3000.0),),
            recovery=RecoveryParams(deadline_ns=1500.0, watchdog_misses=2),
        )
        report = check_fault_invariants(plan)
        assert report.ok, report.describe()
        assert report.fault_summary["faults"]["failovers"] == 1
        assert "[OK]" in report.describe()

    def test_report_surfaces_simulation_crashes(self):
        report = check_fault_invariants(
            FaultPlan(), scheme="no-such-scheme"
        )
        assert not report.ok
        assert "simulation did not complete" in report.violations[0]
        assert "FAILED" in report.describe()

    def test_referee_names_only_the_channel_at_fault(self, monkeypatch):
        """One channel's captured log opens with a CAS before any ACT:
        the per-channel labelling loop reports it once, under that
        channel's name, and no later channel repeats it."""
        start = Channel.start_command_log

        def start_with_a_stray_cas(channel):
            log = start(channel)
            if channel.name == "ch0.0":
                log.append(DramCommand(0, "RD", 0, 1))
            return log

        monkeypatch.setattr(Channel, "start_command_log",
                            start_with_a_stray_cas)
        report = check_fault_invariants(FaultPlan(), functional_ops=20)
        assert report.violations == [
            "dram ch0.0: @0: RD bank 0 with no open row (CAS before ACT)"
        ]
