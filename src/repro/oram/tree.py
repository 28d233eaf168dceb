"""Binary-tree geometry for Path ORAM.

Buckets are numbered heap-style starting at 1 (root = 1, children of node
``n`` are ``2n`` and ``2n+1``), so the bucket on the path to leaf ``x`` at
level ``l`` is a single shift: ``(2^L + x) >> (L - l)``.  All functions are
pure arithmetic -- nothing here allocates tree storage, which is what lets
the timing simulation use the paper's full 4 GB tree.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.oram.config import OramConfig


class TreeGeometry:
    """Pure-arithmetic view of the ORAM tree shape."""

    def __init__(self, config: OramConfig) -> None:
        self.config = config
        self.leaf_level = config.leaf_level
        self.num_leaves = config.num_leaves
        self.num_buckets = config.num_buckets

    # ------------------------------------------------------------------
    def level_of(self, bucket: int) -> int:
        """Level of heap-indexed ``bucket`` (root = level 0)."""
        self._check_bucket(bucket)
        return bucket.bit_length() - 1

    def bucket_on_path(self, leaf: int, level: int) -> int:
        """Heap index of the level-``level`` bucket on the path to ``leaf``."""
        self._check_leaf(leaf)
        if not 0 <= level <= self.leaf_level:
            raise ValueError(f"level {level} out of range")
        return (self.num_leaves + leaf) >> (self.leaf_level - level)

    def path_buckets(self, leaf: int) -> List[int]:
        """Heap indices root..leaf of the path to ``leaf``."""
        self._check_leaf(leaf)
        node = self.num_leaves + leaf
        path = []
        while node >= 1:
            path.append(node)
            node >>= 1
        path.reverse()
        return path

    def on_same_path(self, leaf_a: int, leaf_b: int, level: int) -> bool:
        """Do the two leaves share their level-``level`` bucket?"""
        return self.bucket_on_path(leaf_a, level) == self.bucket_on_path(
            leaf_b, level
        )

    def iter_buckets(self) -> Iterator[int]:
        return iter(range(1, self.num_buckets + 1))

    # ------------------------------------------------------------------
    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} out of range")

    def _check_bucket(self, bucket: int) -> None:
        if not 1 <= bucket <= self.num_buckets:
            raise ValueError(f"bucket {bucket} out of range")
