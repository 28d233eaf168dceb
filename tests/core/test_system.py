"""System assembly: routers, termination, measurement plumbing.

Small trace lengths keep each simulation in the tens of milliseconds.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.schemes import run_scheme
from repro.core.system import SimResult, build_and_run

SHORT = 400


class TestBasicRuns:
    def test_solo_run_produces_result(self):
        r = run_scheme("1ns", "li", SHORT)
        assert isinstance(r, SimResult)
        assert len(r.ns_finish) == 1
        assert r.ns_mean_time() > 0
        assert r.ns_read_latency.count > 0

    def test_seven_apps_all_finish(self):
        r = run_scheme("7ns-4ch", "bl", SHORT)
        assert len(r.ns_finish) == 7
        assert all(t > 0 for t in r.ns_finish.values())

    def test_3ch_partition_leaves_channel0_idle(self):
        r = run_scheme("7ns-3ch", "bl", SHORT)
        assert r.channels["ch0"]["reads"] == 0
        assert r.channels["ch1"]["reads"] > 0

    def test_baseline_runs_oram_on_all_channels(self):
        r = run_scheme("baseline", "li", SHORT)
        assert r.s_app["oram_accesses"] > 0
        for ch in ("ch0", "ch1", "ch2", "ch3"):
            # Secure path traffic lands everywhere (interleaved tree).
            assert r.channels[ch]["reads"] > 0

    def test_doram_confines_oram_to_secure_channel(self):
        r = run_scheme("doram", "li", SHORT)
        # Normal channels must see zero secure-class reads.
        for name, row in r.channels.items():
            if not name.startswith("ch0"):
                assert row["secure_read_ns"] == 0.0, name

    def test_doram_split_reaches_normal_channels(self):
        r = run_scheme("doram+1", "li", SHORT)
        assert r.s_app["remote_short_reads"] > 0
        secure_reads_on_normals = sum(
            1 for name, row in r.channels.items()
            if not name.startswith("ch0") and row["secure_read_ns"] > 0
        )
        assert secure_reads_on_normals == 3

    def test_securemem_replicates(self):
        r = run_scheme("securemem", "bl", SHORT)
        assert len(r.ns_finish) == 7

    def test_c_limit_reduces_ns_presence_on_ch0(self):
        open_run = run_scheme("doram", "li", SHORT)
        closed = run_scheme("doram/0", "li", SHORT)
        ns_reads_open = sum(
            row["normal_reads"] for name, row in open_run.channels.items()
            if name.startswith("ch0")
        )
        ns_reads_closed = sum(
            row["normal_reads"] for name, row in closed.channels.items()
            if name.startswith("ch0")
        )
        # With c=0 no NS-App may allocate on channel 0.
        assert ns_reads_closed == 0
        assert ns_reads_open > 0


class TestResultMetrics:
    def test_ns_conversion(self):
        r = run_scheme("1ns", "bl", SHORT)
        assert r.ns_mean_ns() == pytest.approx(r.ns_mean_time() / 16)

    def test_latency_stats_populated(self):
        r = run_scheme("7ns-4ch", "bl", SHORT)
        assert r.read_latency_ns() > 0
        assert r.write_latency_ns() > 0

    def test_no_ns_apps_raises_on_mean(self):
        cfg = SystemConfig(num_ns_apps=0, has_s_app=True,
                           benchmark="li", trace_length=SHORT)
        result = build_and_run(cfg)
        with pytest.raises(ValueError):
            result.ns_mean_time()

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            build_and_run(SystemConfig(num_ns_apps=0, has_s_app=False))


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        a = run_scheme("doram", "li", SHORT)
        b = run_scheme("doram", "li", SHORT)
        assert a.ns_finish == b.ns_finish
        assert a.events == b.events

    def test_seed_changes_results(self):
        a = run_scheme("doram", "li", SHORT, seed=1)
        b = run_scheme("doram", "li", SHORT, seed=2)
        assert a.ns_finish != b.ns_finish
