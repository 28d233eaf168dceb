"""Secure delegator hardware budget (Section III-E).

The paper argues the SD is cheap: citing the Ascend implementation [31],
the complete Path ORAM component (stash, position map SRAM, AES units,
control) occupies under 1 mm^2 at 32 nm -- "modest for an on-board BOB
unit".  This module makes that budget explicit and checkable: it sizes
each SD structure from the ORAM configuration and flags configurations
whose on-delegator state outgrows the paper's envelope (the practical
limit that motivates both the tree-top cache depth and, for huge trees,
Path ORAM's recursive position map, which stores the map in smaller
ORAMs until the top one fits on chip; Stefanov et al., CCS'13, Sec. 4).

Densities are rough 32 nm figures (SRAM ~0.6 mm^2 per MB including
overhead; one AES-128 round-pipelined core ~0.02 mm^2), adequate for a
sanity budget, not for circuit design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.oram.config import OramConfig

#: mm^2 per MB of SRAM at 32 nm (array + periphery, conservative).
SRAM_MM2_PER_MB = 0.6
#: mm^2 per pipelined AES-128 core at 32 nm.
AES_CORE_MM2 = 0.02
#: Fixed control/queueing overhead, mm^2.
CONTROL_MM2 = 0.05
#: The paper's envelope (Section III-E, citing [31]).
PAPER_BUDGET_MM2 = 1.0


@dataclass(frozen=True)
class DelegatorBudget:
    """Sized SD structures for one ORAM configuration."""

    position_map_bytes: int
    stash_bytes: int
    treetop_bytes: int
    aes_cores: int

    @property
    def sram_bytes(self) -> int:
        return self.position_map_bytes + self.stash_bytes + self.treetop_bytes

    @property
    def area_mm2(self) -> float:
        sram = self.sram_bytes / 2**20 * SRAM_MM2_PER_MB
        return sram + self.aes_cores * AES_CORE_MM2 + CONTROL_MM2


def size_delegator(
    config: OramConfig,
    stash_entries: int = 200,
    aes_cores: int = 2,
    recursive_position_map: bool = False,
) -> DelegatorBudget:
    """Size the SD's structures for ``config``.

    ``recursive_position_map`` models storing the map in the tree
    (recursion): the SD then keeps only the top-level map (~4 KB)
    instead of one entry per user block.
    """
    if stash_entries < 1 or aes_cores < 1:
        raise ValueError("stash_entries and aes_cores must be positive")
    entry_bytes = max(1, (config.leaf_level + 7) // 8)
    if recursive_position_map:
        posmap = 4096
    else:
        posmap = config.num_user_blocks * entry_bytes
    stash = stash_entries * (config.block_bytes + 16)  # payload + tags
    treetop_buckets = (1 << config.treetop_levels) - 1
    treetop = treetop_buckets * config.bucket_size * (config.block_bytes + 16)
    return DelegatorBudget(
        position_map_bytes=posmap,
        stash_bytes=stash,
        treetop_bytes=treetop,
        aes_cores=aes_cores,
    )
