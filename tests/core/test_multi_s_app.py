"""Multiple S-Apps sharing one secure delegator (Section III-C scenario)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.schemes import run_scheme

TRACE = 500


class TestConfig:
    def test_multi_s_requires_delegation(self):
        with pytest.raises(ValueError):
            SystemConfig(arch="direct", protection="path",
                         oram_placement="onchip", num_s_apps=2)
        with pytest.raises(ValueError):
            SystemConfig(protection="securemem", arch="direct",
                         oram_placement="onchip", num_s_apps=2)

    def test_positive_count(self):
        with pytest.raises(ValueError):
            SystemConfig(num_s_apps=0)


class TestTwoSApps:
    @pytest.fixture(scope="class")
    def pair(self):
        one = run_scheme("doram", "li", TRACE, num_ns_apps=2)
        two = run_scheme("doram", "li", TRACE, num_ns_apps=2, num_s_apps=2)
        return one, two

    def test_both_run_to_completion(self, pair):
        _one, two = pair
        assert len(two.ns_finish) == 2
        assert two.s_app["oram_accesses"] > 0

    def test_sd_serialization_slows_each_s_app(self, pair):
        one, two = pair
        # Two trees share one engine: per-access response latency grows
        # (close to doubling under full dummy load).
        assert (two.s_app["oram_response_ns"]
                > 1.4 * one.s_app["oram_response_ns"])

    def test_oram_traffic_stays_on_secure_channel(self, pair):
        _one, two = pair
        for name, row in two.channels.items():
            if not name.startswith("ch0"):
                assert row["secure_reads"] == 0, name

    def test_trees_do_not_collide(self, pair):
        # Distinct base regions: both trees' accesses succeed and the
        # per-subchannel secure read totals are consistent with two
        # interleaved engines (84 blocks per access overall).
        _one, two = pair
        secure_reads = sum(
            row["secure_reads"] for name, row in two.channels.items()
            if name.startswith("ch0")
        )
        accesses = two.s_app["oram_accesses"]
        assert secure_reads >= (accesses - 3) * 84
        assert secure_reads <= accesses * 84

    def test_ns_apps_pay_little_extra(self, pair):
        one, two = pair
        # The second S-App adds load but the fixed-rate pacing bounds it:
        # NS time should grow mildly, not multiplicatively.
        assert two.ns_mean_time() < 1.5 * one.ns_mean_time()
