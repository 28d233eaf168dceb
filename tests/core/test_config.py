"""SystemConfig validation and Table II defaults."""

import pytest

from repro.core.config import PACKET_BYTES, SHORT_PACKET_BYTES, SystemConfig
from repro.sim.engine import mem_cycles


class TestTable2Defaults:
    def test_processor(self):
        cfg = SystemConfig()
        assert cfg.core_params.rob_size == 128
        assert cfg.core_params.retire_width == 4
        assert cfg.core_params.fetch_width == 4

    def test_memory_organization(self):
        cfg = SystemConfig()
        assert cfg.num_channels == 4
        assert cfg.secure_subchannels == 4
        assert cfg.normal_subchannels == 1
        assert cfg.channel_params.num_banks == 8
        assert cfg.channel_params.num_ranks == 1

    def test_ddr3_1600(self):
        assert SystemConfig().dram_timing.tCL == mem_cycles(11)

    def test_oram_paper_config(self):
        cfg = SystemConfig()
        assert cfg.oram.leaf_level == 23
        assert cfg.oram.bucket_size == 4
        assert cfg.oram.treetop_levels == 3
        assert cfg.oram.subtree_levels == 7

    def test_protection_knobs(self):
        cfg = SystemConfig()
        assert cfg.t_cycles == 50
        assert cfg.secure_share == 0.5

    def test_packet_sizes(self):
        assert PACKET_BYTES == 72
        assert SHORT_PACKET_BYTES == 16


class TestValidation:
    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            SystemConfig(arch="quantum")

    def test_unknown_protection(self):
        with pytest.raises(ValueError):
            SystemConfig(protection="prayers")

    def test_delegation_needs_bob(self):
        with pytest.raises(ValueError):
            SystemConfig(arch="direct", oram_placement="delegated",
                         protection="path")

    def test_split_needs_delegation(self):
        with pytest.raises(ValueError):
            SystemConfig(arch="bob", oram_placement="onchip", split_k=1)

    def test_c_limit_range(self):
        with pytest.raises(ValueError):
            SystemConfig(arch="bob", oram_placement="delegated",
                         c_limit=8, num_ns_apps=7)

    def test_share_range(self):
        with pytest.raises(ValueError):
            SystemConfig(secure_share=1.0)


class TestDerived:
    def test_effective_oram_expansion(self):
        cfg = SystemConfig(arch="bob", oram_placement="delegated", split_k=2)
        expanded = cfg.effective_oram()
        assert expanded.leaf_level == 25
        # Capacity quadruples (4 GB -> 16 GB) with k = 2.
        assert expanded.tree_bytes == pytest.approx(
            4 * cfg.oram.tree_bytes, rel=0.01
        )

    def test_effective_oram_identity_without_split(self):
        cfg = SystemConfig()
        assert cfg.effective_oram() is cfg.oram
