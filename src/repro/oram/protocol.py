"""Pure protocol logic shared by the functional and timing ORAM layers.

The only algorithmically interesting step of Path ORAM is write-phase
eviction: after a path has been read into the stash, which stash blocks go
back into which bucket?  :func:`greedy_evict` implements the standard
greedy strategy of Stefanov et al. -- walk the path leaf -> root and at
each bucket place up to Z blocks whose assigned path shares that bucket.
Greedy from the leaf is optimal for a single path: a block placed as deep
as possible never takes a slot a shallower block needed.

``ProtocolState`` bundles the per-access bookkeeping (position map lookup
and remap, dummy/real accounting) used identically by the functional ORAM
and the timing controller.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.oram.config import OramConfig
from repro.oram.position_map import DensePositionMap, LazyPositionMap
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry


def greedy_evict(
    geometry: TreeGeometry,
    stash: Stash,
    leaf: int,
    bucket_size: int,
) -> Dict[int, List[int]]:
    """Plan the write phase for the path to ``leaf``.

    Returns ``{bucket_heap_index: [block_id, ...]}`` covering *every*
    bucket on the path (possibly with empty lists); the caller pads with
    dummies up to Z and removes the chosen blocks from the stash.
    """
    plan: Dict[int, List[int]] = {}
    placed = set()
    path = geometry.path_buckets(leaf)
    for level in range(geometry.leaf_level, -1, -1):
        bucket = path[level]
        candidates = [
            block_id
            for block_id, block_leaf, _payload in stash.items()
            if block_id not in placed
            and geometry.on_same_path(block_leaf, leaf, level)
        ]
        # Deterministic order keeps runs reproducible.
        candidates.sort()
        chosen = candidates[:bucket_size]
        placed.update(chosen)
        plan[bucket] = chosen
    return plan


class ProtocolState:
    """Position-map handling and access accounting for one ORAM instance.

    ``access_begin`` performs the protocol's first step -- look up the
    block's current leaf and immediately remap it to a fresh random leaf --
    and returns the *old* leaf, whose path the caller must read and
    rewrite.  Dummy accesses pick a uniformly random path and touch no
    position-map state, exactly as the D-ORAM timing-channel guard
    requires (Section III-B, step 2).
    """

    def __init__(self, config: OramConfig, seed: int = 0, lazy: bool = True) -> None:
        self.config = config
        self.geometry = TreeGeometry(config)
        map_cls = LazyPositionMap if lazy else DensePositionMap
        self.position_map = map_cls(
            config.num_user_blocks, config.num_leaves, seed=seed
        )
        self._dummy_rng = random.Random(seed ^ 0x5EED)
        self.real_accesses = 0
        self.dummy_accesses = 0

    def access_begin(self, block_id: int) -> tuple:
        """Start a real access: returns ``(old_leaf, new_leaf)``."""
        old_leaf = self.position_map.lookup(block_id)
        new_leaf = self.position_map.remap(block_id)
        self.real_accesses += 1
        return old_leaf, new_leaf

    def dummy_path(self) -> int:
        """Uniformly random path for a dummy access."""
        self.dummy_accesses += 1
        return self._dummy_rng.randrange(self.config.num_leaves)
