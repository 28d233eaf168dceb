"""Position maps: logical block id -> assigned leaf.

Two implementations with one interface:

* :class:`DensePositionMap` materializes every entry -- used by the
  functional ORAM, whose trees are small.
* :class:`LazyPositionMap` assigns leaves on first touch -- used by the
  timing controller so the paper's 4 GB tree (33 M user blocks) costs
  memory only for blocks the workload actually touches.  First-touch
  assignment is distribution-identical to a fully pre-randomized map.

In D-ORAM the map lives inside the secure delegator (Fig. 3/Fig. 6); in
the on-chip baseline it lives in the processor's secure engine.  Either
way it is inside the TCB and costs no DRAM traffic (the paper does not
use recursive ORAM).
"""

from __future__ import annotations

import random
from typing import Dict


class DensePositionMap:
    """Array-backed map, fully randomized at construction."""

    def __init__(self, num_blocks: int, num_leaves: int, seed: int = 0) -> None:
        if num_blocks < 0 or num_leaves < 1:
            raise ValueError("bad position map geometry")
        self.num_leaves = num_leaves
        self._rng = random.Random(seed)
        self._map = [
            self._rng.randrange(num_leaves) for _ in range(num_blocks)
        ]

    def __len__(self) -> int:
        return len(self._map)

    def lookup(self, block_id: int) -> int:
        return self._map[block_id]

    def remap(self, block_id: int) -> int:
        """Assign a fresh uniformly random leaf and return it."""
        leaf = self._rng.randrange(self.num_leaves)
        self._map[block_id] = leaf
        return leaf


class LazyPositionMap:
    """Dict-backed map that assigns leaves on first lookup."""

    def __init__(self, num_blocks: int, num_leaves: int, seed: int = 0) -> None:
        if num_blocks < 0 or num_leaves < 1:
            raise ValueError("bad position map geometry")
        self.num_blocks = num_blocks
        self.num_leaves = num_leaves
        self._rng = random.Random(seed)
        self._map: Dict[int, int] = {}

    def __len__(self) -> int:
        return self.num_blocks

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise ValueError(f"block {block_id} out of range")

    def lookup(self, block_id: int) -> int:
        self._check(block_id)
        leaf = self._map.get(block_id)
        if leaf is None:
            leaf = self._rng.randrange(self.num_leaves)
            self._map[block_id] = leaf
        return leaf

    def remap(self, block_id: int) -> int:
        self._check(block_id)
        leaf = self._rng.randrange(self.num_leaves)
        self._map[block_id] = leaf
        return leaf
