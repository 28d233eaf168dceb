"""Address mapping: application line addresses to DRAM device coordinates.

Two layers, mirroring the paper's memory organization:

* :class:`ChannelInterleaver` decides *which* channel/sub-channel a line
  lives on.  Per-application channel masks implement the experiments'
  allocation policies: the Fig. 4 channel partition (7NS-3ch keeps NS-Apps
  off channel 0) and D-ORAM/c (only ``c`` of the NS-Apps may allocate on
  the secure channel, Section III-D).

* :func:`decode_line` maps the channel-local line index to (bank, row,
  column) with consecutive lines filling a row before moving to the next
  bank, so streaming accesses see row-buffer hits -- USIMM's default
  open-page-friendly layout.

The ORAM tree does *not* use this module's interleaver; its physical
placement is the subtree layout in :mod:`repro.oram.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class DeviceGeometry:
    """Channel-local geometry used to decode line indices."""

    num_banks: int = 8
    lines_per_row: int = 128  # 8 KB row / 64 B line
    num_rows: int = 1 << 16


def decode_line(local_line: int, geometry: DeviceGeometry) -> Tuple[int, int, int]:
    """Map a channel-local line index to ``(bank, row, col)``.

    Row-major within a bank row, then round-robin across banks per row so
    that (a) a streaming app keeps row hits inside each bank and (b) large
    strides still spread across banks for parallelism.
    """
    if local_line < 0:
        raise ValueError("negative line index")
    col = local_line % geometry.lines_per_row
    row_group = local_line // geometry.lines_per_row
    bank = row_group % geometry.num_banks
    row = (row_group // geometry.num_banks) % geometry.num_rows
    return bank, row, col


class ChannelInterleaver:
    """Per-application interleaving across an allowed set of channels.

    Each application owns a disjoint slice of the physical row space (a
    per-app base row offset) so co-running copies of the same benchmark do
    not alias onto the same rows, matching the paper's "addresses of
    different versions are mapped to different address spaces".
    """

    def __init__(
        self,
        targets: Sequence[Tuple[int, int]],
        geometry: DeviceGeometry = DeviceGeometry(),
        app_base_line: int = 0,
    ) -> None:
        if not targets:
            raise ValueError("an app must be allowed at least one channel")
        self.targets: List[Tuple[int, int]] = list(targets)
        self.geometry = geometry
        self.app_base_line = app_base_line
        # Hot-path caches for map_line (one decode per issued request;
        # the property indirection was measurable there).
        self._num_targets = len(self.targets)
        self._lines_per_row = geometry.lines_per_row
        self._num_banks = geometry.num_banks
        self._num_rows = geometry.num_rows

    def map_line(self, line_index: int) -> Tuple[int, int, int, int, int]:
        """Stripe ``line_index`` across the allowed targets at line grain:
        ``(channel, subchannel, bank, row, col)``, decoded as
        :func:`decode_line` does."""
        if line_index < 0:
            raise ValueError("negative line index")
        n = self._num_targets
        channel, subchannel = self.targets[line_index % n]
        local = self.app_base_line + line_index // n
        col = local % self._lines_per_row
        row_group = local // self._lines_per_row
        return (
            channel,
            subchannel,
            row_group % self._num_banks,
            (row_group // self._num_banks) % self._num_rows,
            col,
        )
