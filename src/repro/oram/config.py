"""Path ORAM configuration.

Defaults are the paper's Section IV setup: a 4 GB tree with ``L = 23``
(24 levels, root at level 0), ``Z = 4`` blocks per bucket, the top three
levels held in an on-controller tree-top cache, and the remaining 21
levels laid out as 7-level subtrees [Ren et al., ISCA'13].
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OramConfig:
    """Geometry and protocol parameters of one Path ORAM instance."""

    #: Leaf level index; the tree has ``leaf_level + 1`` levels.
    leaf_level: int = 23
    #: Blocks per bucket (Z).
    bucket_size: int = 4
    #: Cache line / block size in bytes.
    block_bytes: int = 64
    #: Levels (from the root) held in the controller's tree-top cache and
    #: therefore never fetched from memory.
    treetop_levels: int = 3
    #: Height of the subtree packing unit for the row-buffer-friendly
    #: layout.
    subtree_levels: int = 7
    #: Fraction of tree block capacity exposed as user blocks; Path ORAM
    #: needs ~50 % slack to keep stash overflow negligible (Section III-C).
    utilization: float = 0.5

    def __post_init__(self) -> None:
        if self.leaf_level < 0:
            raise ValueError("leaf_level must be >= 0")
        if self.bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        if not 0 <= self.treetop_levels <= self.leaf_level + 1:
            raise ValueError("treetop_levels out of range")
        if self.subtree_levels < 1:
            raise ValueError("subtree_levels must be >= 1")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")

    # -- derived geometry ------------------------------------------------
    @property
    def num_levels(self) -> int:
        return self.leaf_level + 1

    @property
    def num_leaves(self) -> int:
        return 1 << self.leaf_level

    @property
    def num_buckets(self) -> int:
        return (1 << (self.leaf_level + 1)) - 1

    @property
    def capacity_blocks(self) -> int:
        """Total block slots in the tree."""
        return self.num_buckets * self.bucket_size

    @property
    def num_user_blocks(self) -> int:
        """Logical blocks the ORAM exposes (utilization-limited)."""
        return int(self.capacity_blocks * self.utilization)

    @property
    def tree_bytes(self) -> int:
        return self.capacity_blocks * self.block_bytes

    @property
    def levels_fetched(self) -> int:
        """Levels actually read from memory per access (tree-top cached
        levels excluded) -- 21 with the paper's defaults."""
        return self.num_levels - self.treetop_levels

    @property
    def blocks_per_phase(self) -> int:
        """Block transfers per read (or write) phase -- 84 by default."""
        return self.levels_fetched * self.bucket_size

