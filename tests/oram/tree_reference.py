"""Bucket and leaf ranges of a heap-indexed ORAM tree, computed directly.

The root is bucket 1 at level 0, and level ``l`` holds buckets
``2**l .. 2**(l+1) - 1``.  These are the tests' oracles for the path
arithmetic of :class:`repro.oram.tree.TreeGeometry` and for which
buckets :class:`repro.oram.layout.OramLayout` places in DRAM.
"""


def buckets_at_level(geometry, level: int) -> range:
    """Heap indices of every bucket at ``level``."""
    if not 0 <= level <= geometry.leaf_level:
        raise ValueError(f"level {level} out of range")
    return range(1 << level, 1 << (level + 1))


def leaf_range(geometry, bucket: int) -> range:
    """Leaves whose paths pass through ``bucket``."""
    level = geometry.level_of(bucket)
    span = 1 << (geometry.leaf_level - level)
    first = (bucket - (1 << level)) * span
    return range(first, first + span)


def is_cached(layout, bucket: int) -> bool:
    """True when the bucket lives in the tree-top cache (no DRAM)."""
    return layout.tree.level_of(bucket) < layout.config.treetop_levels
