"""Direct checks of quantitative statements in the paper's text.

Each test quotes (paraphrased) a sentence from the paper and asserts the
reproduction's corresponding quantity.  These pin the model to the text
independently of the evaluation figures.
"""

import pytest

from repro.bob.link import LinkParams
from repro.core.config import PACKET_BYTES, SHORT_PACKET_BYTES, SystemConfig
from repro.core.tree_split import split_space_shares
from repro.oram.config import OramConfig
from repro.sim.engine import cpu_cycles, ns


class TestSectionII:
    def test_one_phase_accesses_23x4_blocks_root_cached(self):
        """II-B1: 'one phase accesses 23x4 blocks if only the root node
        is cached'."""
        cfg = OramConfig(treetop_levels=1)
        assert cfg.blocks_per_phase == 23 * 4

    def test_one_phase_accesses_21x4_blocks_top3_cached(self):
        """...'or 21x4 blocks if top 3 levels are cached'."""
        cfg = OramConfig(treetop_levels=3)
        assert cfg.blocks_per_phase == 21 * 4

    def test_4gb_tree_has_24_levels(self):
        """II-B1: 'Given 4GB Path ORAM tree, if each bucket contains 4
        blocks, the tree has 24 levels'."""
        cfg = OramConfig()
        assert cfg.num_levels == 24
        assert cfg.tree_bytes == pytest.approx(4 * 2**30, rel=0.01)

    def test_50_percent_space_efficiency(self):
        """III-C: 'a 4GB tree needs to be built for 2GB user data'."""
        cfg = OramConfig()
        assert cfg.num_user_blocks * cfg.block_bytes == pytest.approx(
            2 * 2**30, rel=0.01
        )


class TestSectionIII:
    def test_packet_is_72_bytes_with_fields(self):
        """III-B: 'Each packet is 72B long ... access type (1 bit),
        memory address (63 bits), and data (512 bits)'."""
        assert PACKET_BYTES == 72
        assert PACKET_BYTES * 8 == 1 + 63 + 512

    def test_t_is_50_cycles(self):
        """III-B(2): 'a new Path ORAM request t cycles after receiving
        the response ... We choose t=50'."""
        assert SystemConfig().t_cycles == 50
        assert cpu_cycles(50) == 250  # ticks at 3.2 GHz

    def test_tree_doubles_when_k_is_1(self):
        """Section V: 'The tree space doubles when k=1'."""
        base = SystemConfig()
        plus1 = SystemConfig(split_k=1)
        assert plus1.effective_oram().tree_bytes == pytest.approx(
            2 * base.oram.tree_bytes, rel=1e-6
        )

    def test_table1_k2_balances_at_25_percent(self):
        """III-C: 'when k=2, each channel saves 25% data blocks'."""
        shares = split_space_shares(2)
        assert shares["secure"] == pytest.approx(0.25, abs=0.001)
        assert shares["normal"] == pytest.approx(0.25, abs=0.001)

    def test_short_read_packets_smaller(self):
        """III-C: 'the read packets are short packets with data field
        omitted'."""
        assert SHORT_PACKET_BYTES < PACKET_BYTES
        assert SHORT_PACKET_BYTES * 8 >= 64  # still fits the address


class TestSectionIV:
    def test_link_latency_15ns(self):
        """IV: 'We added 15ns data transfer latency for the overhead of
        link bus and BoB control' (split across the two directions)."""
        params = LinkParams()
        assert 2 * params.latency == ns(15)

    def test_serial_link_comparable_to_parallel_channel(self):
        """III-A: 'the peak bandwidth of one serial link channel is set
        to be comparable with that of one parallel link channel'
        (DDR3-1600 x64 = 12.8 GB/s)."""
        assert LinkParams().bytes_per_ns == pytest.approx(12.8)

    def test_secure_channel_has_4_subchannels_normals_1(self):
        """IV: 'we choose to set the secure channel with 4 sub-channels,
        and other channels with 1 sub-channel'."""
        cfg = SystemConfig()
        assert cfg.secure_subchannels == 4
        assert cfg.normal_subchannels == 1

    def test_bandwidth_threshold_50_percent(self):
        """IV: 'We set the threshold to 50% so that both kinds of
        applications have similar slowdown.'"""
        assert SystemConfig().secure_share == 0.5


class TestSectionVE:
    def test_path_oram_access_finishes_in_thousands_of_ns(self):
        """V-E: 'Path ORAM accesses typically finish in the range of
        thousands of nanoseconds' -- check the on-chip baseline's
        response latency lands in that band."""
        from repro.core.schemes import run_scheme

        result = run_scheme("baseline", "li", 600)
        assert 300 < result.s_app["oram_response_ns"] < 20_000

    def test_sd_overhead_is_tens_of_ns(self):
        """V-E: 'adopting Secure Delegator in BoB architecture slows
        down the memory access latency by tens of nanoseconds' -- the
        round-trip link + SD processing cost."""
        cfg = SystemConfig()
        overhead_ns = (
            2 * cfg.link_params.latency / 16
            + cfg.sd_process_ns
            + (PACKET_BYTES * 2) / cfg.link_params.bytes_per_ns
        )
        assert 10 < overhead_ns < 100
