"""Physical placement of the ORAM tree in DRAM.

Implements the two layout techniques Section IV adopts plus the D-ORAM+k
split of Section III-C:

* **Tree-top cache** -- the top ``treetop_levels`` levels live in the
  controller's SRAM and produce no DRAM traffic.
* **Subtree layout** [Ren et al., ISCA'13] -- the remaining levels are cut
  into ``subtree_levels``-high subtrees; each subtree's buckets are packed
  contiguously so one path's accesses inside a subtree land in the same
  DRAM row.  With the paper's numbers (7-level subtrees, one block of each
  bucket per sub-channel) a subtree occupies 127 consecutive lines per
  sub-channel -- almost exactly one 8 KB row.
* **Tree split (D-ORAM+k)** -- levels beyond ``home_levels`` are relocated
  to the normal channels: block 0 of a relocated bucket goes to channel
  ``(bucket mod 3) + 1`` and blocks 1..3 go to channels 1..3 (Fig. 7),
  which produces exactly Table I's space distribution.

The layout is pure arithmetic over bucket indices -- the 4 GB tree is
never materialized.

A path is placed either in full (:meth:`OramLayout.path_placements`: one
:class:`BlockPlacement` per block) or, when the layout mirrors (Z a
multiple of two or more home targets, so each line of a home bucket holds
one block on every target at the same bank, row and column), as a
:class:`LaneShare` (:meth:`OramLayout.lane_share`): one placement per
home line, lane 0's, standing for the line's block on every lane.  The
secure delegator issues a lane share to a live lane group of the home
sub-channels and expands it back (:meth:`LaneShare.expand`) if the group
has woken.

Each form memoizes a bucket's placements only on the levels a random
path revisits: the tree-top levels and the first subtree segment, levels
``0 .. treetop_levels + subtree_levels - 1``.  A bucket at level ``l``
lies on a uniformly random path with probability ``2^-l`` (Path ORAM),
so deeper buckets are placed afresh, and each memo holds fewer than
``2^(treetop_levels + subtree_levels)`` buckets however long the run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dram.address_mapping import DeviceGeometry, decode_line
from repro.oram.config import OramConfig
from repro.oram.tree import TreeGeometry


class BlockPlacement:
    """Where one (bucket, slot) block lives, plus routing information.

    ``remote`` is True when the block sits on a normal channel and must
    be reached with explicit cross-channel messages (Section III-C).
    ``target`` is the ``(channel, subchannel)`` a sink queues a local
    block on, and ``None`` for a remote one: one key to group a phase by.
    The layout passes its own target tuples, so placements share them.

    A plain ``__slots__`` class rather than a frozen dataclass: one
    placement is built per non-cached path block, and the per-field
    ``object.__setattr__`` of a frozen dataclass made construction the
    hottest allocation in the whole-system profile.  Treat instances as
    immutable.
    """

    __slots__ = (
        "bucket", "slot", "channel", "subchannel", "bank", "row", "col",
        "remote", "target",
    )

    def __init__(self, bucket: int, slot: int, channel: int,
                 subchannel: int, bank: int, row: int, col: int,
                 remote: bool,
                 target: Optional[Tuple[int, int]] = None) -> None:
        self.bucket = bucket
        self.slot = slot
        self.channel = channel
        self.subchannel = subchannel
        self.bank = bank
        self.row = row
        self.col = col
        self.remote = remote
        if remote:
            target = None
        elif target is None:
            target = (channel, subchannel)
        self.target = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPlacement(bucket={self.bucket}, slot={self.slot}, "
            f"channel={self.channel}, subchannel={self.subchannel}, "
            f"bank={self.bank}, row={self.row}, col={self.col}, "
            f"remote={self.remote})"
        )


class LaneShare(list):
    """Lane 0's blocks of one ORAM path, each standing for every lane's.

    Built by :meth:`OramLayout.lane_share` for a mirroring layout: one
    placement per home line, in path order (the line's slot-``0``,
    ``lanes``, ``2 * lanes``, ... block, on home target 0), then the
    path's remote (split-tree) blocks, one entry each.  A home entry
    stands for the ``lanes`` blocks of its line, which sit at the same
    bank, row and column on every lane.  A list, so the ORAM controller
    filters and copies it as it does full placements; :meth:`copy` keeps
    the marking (slicing does not).
    """

    __slots__ = ("layout", "lanes")

    def __init__(self, layout: "OramLayout", blocks=()) -> None:
        list.__init__(self, blocks)
        self.layout = layout
        self.lanes = len(layout.home_targets)

    def copy(self) -> "LaneShare":
        return LaneShare(self.layout, self)

    def expand(self) -> List[BlockPlacement]:
        """Every lane's blocks of this share, in path order: a home
        entry's line is ``bucket_placements(bucket)[slot:slot + lanes]``,
        a remote entry itself."""
        lanes = self.lanes
        bucket_placements = self.layout.bucket_placements
        blocks: List[BlockPlacement] = []
        for placement in self:
            if placement.remote:
                blocks.append(placement)
            else:
                slot = placement.slot
                blocks += bucket_placements(placement.bucket)[slot:slot + lanes]
        return blocks


def block_count(placements: Sequence[BlockPlacement]) -> int:
    """The blocks ``placements`` stand for: one each, except that a
    :class:`LaneShare`'s home entry stands for one block on every lane."""
    if placements.__class__ is not LaneShare:
        return len(placements)
    lanes = placements.lanes
    return sum(1 if p.remote else lanes for p in placements)


class OramLayout:
    """Bucket/slot -> device-coordinate mapping for one ORAM tree."""

    def __init__(
        self,
        config: OramConfig,
        home_targets: Sequence[Tuple[int, int]],
        geometry: DeviceGeometry = DeviceGeometry(),
        base_line: int = 1 << 24,
        home_levels: Optional[int] = None,
        remote_targets: Sequence[Tuple[int, int]] = (),
        remote_base_line: int = 1 << 24,
    ) -> None:
        """
        Parameters
        ----------
        home_targets:
            (channel, subchannel) pairs of the tree's home -- the secure
            channel's four sub-channels in D-ORAM, or the four parallel
            channels in the on-chip baseline.  Bucket slot ``s`` lives on
            ``home_targets[s % len(home_targets)]``.
        home_levels:
            Number of levels (from the root) kept on the home targets;
            levels beyond it are relocated to ``remote_targets``.  Default:
            all levels.  D-ORAM+k passes ``config.num_levels - k``.
        base_line / remote_base_line:
            Line-index origin of the ORAM region inside each target,
            placed far above the NS-App slices.
        """
        if not home_targets:
            raise ValueError("home_targets must not be empty")
        self.config = config
        self.tree = TreeGeometry(config)
        self.home_targets = [tuple(target) for target in home_targets]
        self.device = geometry
        self.base_line = base_line
        self.home_levels = (
            config.num_levels if home_levels is None else home_levels
        )
        if not config.treetop_levels <= self.home_levels <= config.num_levels:
            raise ValueError("home_levels out of range")
        self.split_k = config.num_levels - self.home_levels
        self.remote_targets = list(remote_targets)
        self.remote_base_line = remote_base_line
        if self.split_k > 0 and not self.remote_targets:
            raise ValueError("tree split requires remote targets")
        lanes = len(self.home_targets)
        self._blocks_per_target = -(-config.bucket_size // lanes)
        #: True when every home line holds one block on each home target
        #: (``bucket_size`` a multiple of two or more targets): a path
        #: then has a :meth:`lane_share`.
        self.mirrors = lanes >= 2 and config.bucket_size % lanes == 0
        # Precompute per-segment bucket-count prefix for the subtree packing.
        self._segment_offsets = self._build_segments()
        self._home_lines = self._build_home_lines()
        # Per-remote-level line-base offsets.
        self._remote_level_bases = self._build_remote_bases()
        #: Levels numbered below this one are memoized (module docstring).
        self._memo_levels = min(
            config.treetop_levels + config.subtree_levels, config.num_levels
        )
        #: ``bucket -> tuple of its placements``, memoized levels only.
        self._bucket_cache: dict = {}
        #: ``bucket -> tuple of its lane-share entries`` (mirroring only),
        #: memoized levels only.
        self._lane_cache: dict = {}
        self._all_slots = range(config.bucket_size)
        self._lane_slots = range(0, config.bucket_size, lanes)
        # Hot-path caches: placement construction runs per path bucket and
        # chased these through two dataclasses before.
        self._bucket_size = config.bucket_size
        self._treetop_levels = config.treetop_levels
        self._leaf_level = config.leaf_level
        self._num_leaves = config.num_leaves
        self._lines_per_row = geometry.lines_per_row
        self._num_banks = geometry.num_banks
        self._num_rows = geometry.num_rows

    # ------------------------------------------------------------------
    # Subtree packing of home levels
    # ------------------------------------------------------------------
    def _build_segments(self) -> List[Tuple[int, int, int]]:
        """Segments of the home region: (top_level, height, bucket_offset).

        Levels ``treetop_levels .. home_levels-1`` are cut into
        ``subtree_levels``-high slices; ``bucket_offset`` is the number of
        packed buckets in all earlier segments (per whole tree, before
        division across targets).
        """
        segments: List[Tuple[int, int, int]] = []
        level = self.config.treetop_levels
        offset = 0
        while level < self.home_levels:
            height = min(self.config.subtree_levels, self.home_levels - level)
            segments.append((level, height, offset))
            # Buckets in this slice of the tree:
            buckets = sum(1 << l for l in range(level, level + height))
            offset += buckets
            level += height
        return segments

    def _build_home_lines(self) -> List[Optional[Tuple[int, int, int]]]:
        """Per level, how its home buckets map to lines: ``(depth, size,
        line_base)`` such that bucket ``b`` with subtree root ``r = b >>
        depth`` starts at line ``line_base + (r * size + b - (r <<
        depth)) * blocks_per_target`` -- :meth:`packed_index` with the
        level's segment folded in.  ``None`` on tree-top and remote
        levels."""
        table: List[Optional[Tuple[int, int, int]]] = [None] * (
            self.config.num_levels
        )
        for top, height, offset in self._segment_offsets:
            size = (1 << height) - 1
            for depth in range(height):
                base = offset - (1 << top) * size + (1 << depth) - 1
                table[top + depth] = (
                    depth, size,
                    self.base_line + base * self._blocks_per_target,
                )
        return table

    def _segment_of(self, level: int) -> Tuple[int, int, int]:
        for top, height, offset in reversed(self._segment_offsets):
            if level >= top:
                if level >= top + height:
                    raise ValueError(f"level {level} beyond home region")
                return top, height, offset
        raise ValueError(f"level {level} is tree-top cached")

    def packed_index(self, bucket: int) -> int:
        """Subtree-packed sequential index of a home-region bucket.

        Buckets of one subtree are contiguous (BFS order inside the
        subtree), subtrees are laid out by subtree id.
        """
        level = self.tree.level_of(bucket)
        top, height, seg_offset = self._segment_of(level)
        depth = level - top
        subtree_root = bucket >> depth
        subtree_id = subtree_root - (1 << top)
        subtree_size = (1 << height) - 1
        bfs = ((1 << depth) - 1) + (bucket - (subtree_root << depth))
        return seg_offset + subtree_id * subtree_size + bfs

    # ------------------------------------------------------------------
    # Remote (split) levels
    # ------------------------------------------------------------------
    def _build_remote_bases(self) -> dict:
        """Line-base per relocated level, stacked per channel.

        Each remote channel must reserve room, per level, for the *larger*
        of its two shares: the all-buckets slot-j region and the
        one-in-three slot-0 region; we simply stack both regions.
        """
        bases = {}
        cursor = self.remote_base_line
        for level in range(self.home_levels, self.config.num_levels):
            buckets = 1 << level
            per_target_blocks = buckets  # slot-j region (one block/bucket)
            rotated_blocks = -(-buckets // max(len(self.remote_targets), 1))
            bases[level] = (cursor, cursor + per_target_blocks)
            cursor += per_target_blocks + rotated_blocks
        #: Line-space footprint of the relocated levels on each remote
        #: target (zero without split levels): the next tree stacks past it.
        self.remote_lines_per_target = cursor - self.remote_base_line
        return bases

    # ------------------------------------------------------------------
    @property
    def home_lines_per_target(self) -> int:
        """Line-space footprint of the home region on each target.

        Used to stack multiple ORAM trees (multi-S-App) without overlap:
        the next tree's ``base_line`` starts past this footprint.
        """
        packed_buckets = 0
        if self._segment_offsets:
            top, height, offset = self._segment_offsets[-1]
            packed_buckets = offset + sum(
                1 << l for l in range(top, top + height)
            )
        return packed_buckets * self._blocks_per_target

    # ------------------------------------------------------------------
    # Public mapping
    # ------------------------------------------------------------------
    def place(self, bucket: int, slot: int) -> Optional[BlockPlacement]:
        """Placement of one block; ``None`` for tree-top-cached buckets."""
        if not 0 <= slot < self._bucket_size:
            raise ValueError(f"slot {slot} out of range")
        placements = self.bucket_placements(bucket)
        return placements[slot] if placements else None

    def bucket_placements(self, bucket: int) -> Tuple[BlockPlacement, ...]:
        """Placements of a bucket's ``bucket_size`` blocks in slot order;
        empty for tree-top-cached buckets.

        The mapping is a pure function of the bucket and placements are
        treated as immutable, so a bucket on a memoized level (module
        docstring) is placed once.
        """
        level = self.tree.level_of(bucket)
        if level < self._treetop_levels:
            return ()
        if level >= self._memo_levels:
            return self._place(bucket, level, self._all_slots)
        placements = self._bucket_cache.get(bucket)
        if placements is None:
            placements = self._bucket_cache[bucket] = self._place(
                bucket, level, self._all_slots)
        return placements

    def _place(self, bucket: int, level: int,
               slots: range) -> Tuple[BlockPlacement, ...]:
        """The one placement routine: ``slots`` of a home bucket at
        ``level`` (every slot, or for a lane share the first of each
        line), or every block of a remote one.

        Home slot ``s`` sits on ``home_targets[s % n]`` at line ``base +
        packed * blocks_per_target + s // n``: one line per ``n`` slots
        (one per bucket in the paper's Z = 4 over four sub-channels),
        decoded once and shared by those slots.  A remote bucket follows
        Fig. 7: slot 0 rotates across the remote targets, slot ``j > 0``
        sits on target ``(j - 1) mod n``."""
        home = self._home_lines[level]
        if home is None:
            return self._place_remote(bucket, level)
        targets = self.home_targets
        n = len(targets)
        # Inline of :meth:`packed_index` (the level's segment is folded
        # into ``home``) and of :func:`decode_line` (the line index is
        # positive by construction: ``base_line`` sits above the NS-App
        # slices).
        depth, size, line_base = home
        root = bucket >> depth
        line = line_base + (
            root * size + bucket - (root << depth)
        ) * self._blocks_per_target
        lines_per_row = self._lines_per_row
        num_banks = self._num_banks
        placements = []
        for slot in slots:
            offset = slot % n
            if not offset:
                row_group, col = divmod(line + slot // n, lines_per_row)
                bank = row_group % num_banks
                row = (row_group // num_banks) % self._num_rows
            target = targets[offset]
            placements.append(BlockPlacement(
                bucket, slot, target[0], target[1], bank, row, col, False,
                target,
            ))
        return tuple(placements)

    def _place_remote(self, bucket: int, level: int) -> Tuple[BlockPlacement, ...]:
        n = len(self.remote_targets)
        index_in_level = bucket - (1 << level)
        slot_base, rot_base = self._remote_level_bases[level]
        placements = []
        for slot in range(self._bucket_size):
            if slot == 0:
                # Fig. 7: first block rotates across the normal channels.
                target = self.remote_targets[index_in_level % n]
                line = rot_base + index_in_level // n
            else:
                target = self.remote_targets[(slot - 1) % n]
                line = slot_base + index_in_level
            bank, row, col = decode_line(line, self.device)
            placements.append(BlockPlacement(
                bucket, slot, target[0], target[1], bank, row, col, True
            ))
        return tuple(placements)

    def _path(self, leaf: int, memo: dict, slots: range, out: list) -> list:
        """Append ``slots`` of every bucket on ``leaf``'s path to ``out``,
        bucket by bucket from the first level below the tree-top cache:
        memoized in ``memo`` on the memoized levels, placed afresh
        below them."""
        if not 0 <= leaf < self._num_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        node = self._num_leaves + leaf
        leaf_level = self._leaf_level
        place = self._place
        memo_levels = self._memo_levels
        for level in range(self._treetop_levels, memo_levels):
            bucket = node >> (leaf_level - level)
            placements = memo.get(bucket)
            if placements is None:
                placements = memo[bucket] = place(bucket, level, slots)
            out += placements
        for level in range(memo_levels, leaf_level + 1):
            out += place(node >> (leaf_level - level), level, slots)
        return out

    # ------------------------------------------------------------------
    def path_placements(self, leaf: int) -> List[BlockPlacement]:
        """Every DRAM block touched by an access to ``leaf``'s path, bucket
        by bucket from the root, each bucket in slot order."""
        return self._path(leaf, self._bucket_cache, self._all_slots, [])

    def lane_share(self, leaf: int) -> LaneShare:
        """``leaf``'s path as a :class:`LaneShare` (mirroring layouts
        only): its :meth:`LaneShare.expand` is :meth:`path_placements`."""
        if not self.mirrors:
            raise ValueError("a lane share needs a mirroring layout")
        return self._path(leaf, self._lane_cache, self._lane_slots,
                          LaneShare(self))

    # ------------------------------------------------------------------
    # Space accounting (Table I)
    # ------------------------------------------------------------------
    def channel_share(self) -> dict:
        """Fraction of tree blocks per channel (Table I, left half)."""
        totals: dict = {}
        for level in range(self.config.num_levels):
            buckets = 1 << level
            for slot in range(self.config.bucket_size):
                if level < self.home_levels:
                    target = self.home_targets[slot % len(self.home_targets)]
                    totals[target[0]] = totals.get(target[0], 0) + buckets
                elif slot == 0:
                    for j, target in enumerate(self.remote_targets):
                        count = (
                            buckets // len(self.remote_targets)
                            + (1 if j < buckets % len(self.remote_targets) else 0)
                        )
                        totals[target[0]] = totals.get(target[0], 0) + count
                else:
                    target = self.remote_targets[
                        (slot - 1) % len(self.remote_targets)
                    ]
                    totals[target[0]] = totals.get(target[0], 0) + buckets
        grand = sum(totals.values())
        return {ch: count / grand for ch, count in sorted(totals.items())}
