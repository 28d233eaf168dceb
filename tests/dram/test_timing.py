"""DDR3 timing parameters (Table II: DDR3-1600 defaults)."""

import pytest

from repro.dram.timing import (
    ChannelParams,
    DDR3Timing,
    DDR3_1600,
    DEFAULT_CHANNEL_PARAMS,
)
from repro.sim.engine import mem_cycles


class TestDDR3Defaults:
    def test_speed_grade_11_11_11(self):
        assert DDR3_1600.tRCD == mem_cycles(11)
        assert DDR3_1600.tRP == mem_cycles(11)
        assert DDR3_1600.tCL == mem_cycles(11)

    def test_burst_is_four_bus_cycles(self):
        # BL8 on a x64 channel moves 64 B in 4 bus cycles.
        assert DDR3_1600.tBURST == mem_cycles(4)

    def test_trc_covers_tras_plus_trp(self):
        assert DDR3_1600.tRC >= DDR3_1600.tRAS + DDR3_1600.tRP

    def test_invalid_trc_rejected(self):
        with pytest.raises(ValueError):
            DDR3Timing(tRC=mem_cycles(10))

    def test_invalid_tfaw_rejected(self):
        with pytest.raises(ValueError):
            DDR3Timing(tFAW=mem_cycles(1), tRRD=mem_cycles(5))


class TestChannelParams:
    def test_defaults_match_table2(self):
        p = DEFAULT_CHANNEL_PARAMS
        assert p.num_banks == 8
        assert p.num_ranks == 1
        assert p.line_bytes == 64

    def test_drain_hysteresis_ordering_enforced(self):
        with pytest.raises(ValueError):
            ChannelParams(write_drain_hi=10, write_drain_lo=10)

    def test_row_must_hold_whole_lines(self):
        with pytest.raises(ValueError):
            ChannelParams(row_bytes=1000, line_bytes=64)
