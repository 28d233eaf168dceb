"""The Path ORAM stash.

Blocks that could not be evicted back to the tree (their assigned path was
full at every shared level) wait here.  Theory bounds the occupancy by a
constant with overwhelming probability when Z >= 4 and utilization <= 50 %;
:class:`StashOverflow` turns a violated bound into a loud failure, since a
silently growing stash is the "critical exception that fails the protocol"
Section III-C is designed to avoid.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple


class StashOverflow(RuntimeError):
    """Raised when the stash exceeds its configured capacity."""


class Stash:
    """Block-id keyed stash holding ``(leaf, payload)`` tuples."""

    def __init__(self, capacity: Optional[int] = 200) -> None:
        """``capacity=None`` disables the overflow check (analysis runs)."""
        self.capacity = capacity
        self._blocks: Dict[int, Tuple[int, object]] = {}
        self.peak = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def put(self, block_id: int, leaf: int, payload: object) -> None:
        self._blocks[block_id] = (leaf, payload)
        if len(self._blocks) > self.peak:
            self.peak = len(self._blocks)
        if self.capacity is not None and len(self._blocks) > self.capacity:
            raise StashOverflow(
                f"stash holds {len(self._blocks)} > capacity {self.capacity}"
            )

    def get(self, block_id: int) -> Optional[Tuple[int, object]]:
        return self._blocks.get(block_id)

    def pop(self, block_id: int) -> Tuple[int, object]:
        return self._blocks.pop(block_id)

    def items(self) -> Iterator[Tuple[int, int, object]]:
        """Yield ``(block_id, leaf, payload)`` snapshots."""
        return ((b, lp[0], lp[1]) for b, lp in list(self._blocks.items()))
