"""Address mapping: decode, interleaving, channel masks."""

import pytest

from repro.dram.address_mapping import (
    ChannelInterleaver,
    DeviceGeometry,
    decode_line,
)


class TestDecodeLine:
    def test_sequential_lines_share_row(self):
        g = DeviceGeometry()
        coords = [decode_line(i, g) for i in range(g.lines_per_row)]
        banks = {c[0] for c in coords}
        rows = {c[1] for c in coords}
        assert banks == {0}
        assert rows == {0}
        assert [c[2] for c in coords] == list(range(g.lines_per_row))

    def test_next_row_group_rotates_bank(self):
        g = DeviceGeometry()
        bank0, _, _ = decode_line(0, g)
        bank1, _, _ = decode_line(g.lines_per_row, g)
        assert bank1 == (bank0 + 1) % g.num_banks

    def test_row_advances_after_all_banks(self):
        g = DeviceGeometry()
        _, row, _ = decode_line(g.lines_per_row * g.num_banks, g)
        assert row == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decode_line(-1, DeviceGeometry())

    def test_rows_wrap_at_capacity(self):
        g = DeviceGeometry(num_rows=4)
        _, row, _ = decode_line(g.lines_per_row * g.num_banks * 4, g)
        assert row == 0


class TestChannelInterleaver:
    def test_round_robin_over_targets(self):
        il = ChannelInterleaver([(0, 0), (1, 0), (2, 0)])
        channels = [il.map_line(i)[0] for i in range(6)]
        assert channels == [0, 1, 2, 0, 1, 2]

    def test_local_index_advances_per_round(self):
        il = ChannelInterleaver([(0, 0), (1, 0)])
        a = il.map_line(0)
        b = il.map_line(2)
        assert (a[0], b[0]) == (0, 0)
        assert b[4] == a[4] + 1  # consecutive local lines (column)

    def test_base_line_offsets_apps(self):
        low = ChannelInterleaver([(0, 0)], app_base_line=0)
        high = ChannelInterleaver([(0, 0)], app_base_line=1 << 18)
        assert low.map_line(0) != high.map_line(0)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            ChannelInterleaver([])

    def test_negative_line_rejected(self):
        with pytest.raises(ValueError):
            ChannelInterleaver([(0, 0)]).map_line(-5)

    def test_single_channel_mask(self):
        il = ChannelInterleaver([(2, 0)])
        assert all(il.map_line(i)[0] == 2 for i in range(10))
