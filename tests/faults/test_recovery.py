"""End-to-end recovery scenarios: every fault class injects and heals.

Each test arms one deterministic fault plan on a short golden-size run
and asserts (a) the fault actually fired, (b) the recovery protocol's
counters show the advertised mechanism recovering it, and (c) the run
still drains to completion.  The full invariant harness over these same
plans lives in ``test_invariants.py``; these tests pin the *mechanism*,
not just the outcome.
"""

import pytest

from repro.core.recovery import SecureLinkSession
from repro.core.schemes import run_scheme
from repro.faults import (
    DelegatorFault,
    DramFault,
    FaultController,
    FaultPlan,
    LinkFault,
    RecoveryParams,
)
from repro.sim.engine import Engine

LENGTH = 300


def _run(plan, scheme="doram"):
    controller = FaultController(plan)
    result = run_scheme(scheme, "libq", LENGTH, faults=controller)
    assert result.fault_summary is not None
    return result, result.fault_summary


class TestLinkRecovery:
    def test_corrupted_request_is_nakked_and_retransmitted(self):
        """Garbling a CPU->SD frame trips the SD's MAC check; the SD
        answers with a NAK and the CPU retransmits on a pacer slot."""
        plan = FaultPlan(link=(
            LinkFault(kind="corrupt", link="bob0.down", tag="raw",
                      packets=(3,)),
        ))
        _result, summary = _run(plan)
        assert summary["faults"]["link_corrupts"] == 1
        assert summary["faults"]["sd_mac_failures"] == 1
        link = summary["sdlink0"]
        assert link["naks"] == 1
        assert link["retransmissions"] >= 1
        assert link["recovered_requests"] >= 1
        assert link.get("failovers", 0) == 0

    def test_corrupted_response_fails_mac_at_the_cpu(self):
        plan = FaultPlan(link=(
            LinkFault(kind="corrupt", link="bob0.up", tag="raw",
                      packets=(3,)),
        ))
        _result, summary = _run(plan)
        assert summary["faults"]["link_corrupts"] == 1
        link = summary["sdlink0"]
        assert link["mac_failures"] == 1
        assert link["retransmissions"] >= 1
        assert link["recovered_requests"] >= 1

    def test_dropped_response_times_out_and_retransmits(self):
        plan = FaultPlan(link=(
            LinkFault(kind="drop", link="bob0.up", tag="raw",
                      packets=(3,)),
        ))
        _result, summary = _run(plan)
        assert summary["faults"]["link_drops"] == 1
        link = summary["sdlink0"]
        assert link["timeouts"] >= 1
        assert link["retransmissions"] >= 1
        assert link["recovered_requests"] >= 1
        assert link.get("failovers", 0) == 0

    def test_duplicate_request_is_answered_from_the_response_cache(self):
        """Dropping the *response* makes the retransmitted request a
        duplicate of a completed sequence number; the SD must replay the
        cached RESP, not re-execute the ORAM access."""
        plan = FaultPlan(link=(
            LinkFault(kind="drop", link="bob0.up", tag="raw",
                      packets=(3,)),
        ))
        _result, summary = _run(plan)
        assert summary["faults"]["sd_duplicate_requests"] >= 1

    def test_link_delay_shifts_packets_without_protocol_action(self):
        plan = FaultPlan(link=(
            LinkFault(kind="delay", link="bob0.down", tag="raw",
                      packets=(3,), delay_ns=25.0),
        ))
        _result, summary = _run(plan)
        assert summary["faults"]["link_delays"] == 1
        link = summary["sdlink0"]
        assert link.get("mac_failures", 0) == 0
        assert link.get("failovers", 0) == 0


class TestDramRecovery:
    def test_flips_on_secure_reads_are_reread(self):
        """Every MAC-protected flip must be matched by a guarded
        re-read; unprotected (NS-app) flips are counted and ignored."""
        plan = FaultPlan(dram=(DramFault(channel="ch*", rate=0.01),))
        _result, summary = _run(plan)
        faults = summary["faults"]
        protected = faults.get("dram_flips", 0)
        unprotected = faults.get("dram_flips_unprotected", 0)
        assert protected + unprotected > 0
        assert faults.get("block_rereads", 0) == protected


class TestDelegatorRecovery:
    def test_stall_buffers_and_drains_without_failover(self):
        plan = FaultPlan(delegator=(
            DelegatorFault(kind="stall", start_ns=2000.0,
                           duration_ns=1000.0),
        ))
        result, summary = _run(plan)
        assert summary["faults"]["sd_stall_holds"] >= 1
        assert summary["faults"].get("failovers", 0) == 0
        # Buffering alone absorbs a stall shorter than the deadline:
        # frames drain in order at the window's end, no retransmission.
        assert summary["sdlink0"].get("failovers", 0) == 0
        assert result.end_time > 0

    def test_crash_triggers_watchdog_failover_to_host_engine(self):
        plan = FaultPlan(
            delegator=(DelegatorFault(kind="crash", start_ns=3000.0),),
            recovery=RecoveryParams(deadline_ns=1500.0, watchdog_misses=2),
        )
        result, summary = _run(plan)
        assert summary["faults"]["failovers"] == 1
        link = summary["sdlink0"]
        assert link["timeouts"] >= 2
        assert link["failovers"] == 1
        # The host-side fallback engine was built and did real work.
        fb = result.component_stats.get("oram0.fb")
        assert fb is not None
        assert fb.get("real_accesses", 0) + fb.get("dummy_accesses", 0) > 0

    def test_no_failover_without_a_fault(self):
        result, summary = _run(FaultPlan())
        assert summary["faults"].get("failovers", 0) == 0
        assert "oram0.fb" not in result.component_stats


class TestOnchipGuardedReads:
    def test_baseline_scheme_recovers_dram_flips_too(self):
        """The host-side (onchip) engine uses the same GuardedRead path
        on its direct channel sink."""
        plan = FaultPlan(dram=(DramFault(channel="ch*", rate=0.01),))
        _result, summary = _run(plan, scheme="baseline")
        faults = summary["faults"]
        assert faults.get("dram_flips", 0) + \
            faults.get("dram_flips_unprotected", 0) > 0
        assert faults.get("block_rereads", 0) == faults.get("dram_flips", 0)


class TestBoundedRecovery:
    def test_controller_is_single_run(self):
        controller = FaultController(FaultPlan())
        run_scheme("doram", "libq", LENGTH, faults=controller)
        with pytest.raises(RuntimeError):
            run_scheme("doram", "libq", LENGTH, faults=controller)


class TestDeadlineArming:
    """Only an attached plan can lose a frame, so only then does a
    session arm its response deadline.  A deadline timer takes an engine
    seq, so without a plan arming one would shift every later event's
    seq for a timer that could only ever be cancelled."""

    @staticmethod
    def _deadline_timers(monkeypatch, faults):
        """``(armed, cancelled)`` deadline events of one doram run."""
        armed, cancelled = [], []
        init, cancel = Engine.__init__, Engine.cancel

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            push = self._push

            def recording_push(entry):
                if (getattr(entry[2], "__func__", None)
                        is SecureLinkSession._deadline_fired):
                    armed.append(entry)
                push(entry)

            self._push = recording_push

        def recording_cancel(self, handle):
            cancelled.append(handle)
            return cancel(self, handle)

        monkeypatch.setattr(Engine, "__init__", recording_init)
        monkeypatch.setattr(Engine, "cancel", recording_cancel)
        run_scheme("doram", "libq", LENGTH, faults=faults)
        return armed, cancelled

    def test_no_plan_arms_no_deadline(self, monkeypatch):
        armed, cancelled = self._deadline_timers(monkeypatch, None)
        assert armed == []
        assert cancelled == []

    def test_attached_plan_arms_one_per_attempt(self, monkeypatch):
        """The control: the recorder sees the timers an empty plan arms,
        and each answered request cancels its own."""
        armed, cancelled = self._deadline_timers(
            monkeypatch, FaultController(FaultPlan())
        )
        assert armed
        assert set(cancelled) <= set(armed)
        assert len(armed) - len(cancelled) <= 1  # the last in flight
