"""A complete functional Path ORAM.

Implements the protocol of Fig. 3 end to end with real data: position map
lookup and remap, full-path read into the stash, requested-block service,
greedy write-back with dummy padding, and (optionally) per-bucket
encryption + authentication through a pluggable codec from
:mod:`repro.crypto.codec`.

This layer is what the security tests exercise: correctness (reads return
the last write), the placement invariant (every block lives on its
assigned path or in the stash), bounded stash occupancy, and obliviousness
(the physical address trace is independent of the logical access
pattern).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.oram.config import OramConfig
from repro.oram.protocol import ProtocolState, greedy_evict
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry


class Block:
    """A real data block inside a bucket."""

    __slots__ = ("block_id", "leaf", "data")

    def __init__(self, block_id: int, leaf: int, data: bytes) -> None:
        self.block_id = block_id
        self.leaf = leaf
        self.data = data


class PathOram:
    """Functional Path ORAM over an in-memory bucket array.

    Parameters
    ----------
    config:
        Geometry; use small ``leaf_level`` values (<= 16) -- the bucket
        array is fully materialized.
    codec:
        Optional bucket codec (see :class:`repro.crypto.codec.BucketCodec`)
        applied on every bucket store/load, so the "memory" only ever
        holds ciphertext -- as the untrusted DIMMs do in the paper.
    trace_hook:
        Optional callable invoked as ``trace_hook(kind, bucket_index)``
        for every bucket touched (``kind`` in ``{"read", "write"}``);
        the obliviousness tests record the physical trace through it.
    """

    def __init__(
        self,
        config: OramConfig,
        seed: int = 0,
        codec: Optional[object] = None,
        stash_capacity: Optional[int] = 500,
        trace_hook: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if config.leaf_level > 16:
            raise ValueError(
                "functional PathOram materializes the tree; use "
                "leaf_level <= 16 (the timing controller handles L=23)"
            )
        self.config = config
        self.geometry = TreeGeometry(config)
        self.state = ProtocolState(config, seed=seed, lazy=False)
        self.stash = Stash(stash_capacity)
        self.codec = codec
        self.trace_hook = trace_hook
        self._rng = random.Random(seed ^ 0xB10C)

        # Bucket store, heap-indexed 1..num_buckets.  Entry: encoded bytes
        # when a codec is set, else a plain list of Blocks.
        empty: List[Block] = []
        self._buckets: List[object] = [None] * (config.num_buckets + 1)
        for bucket in self.geometry.iter_buckets():
            self._buckets[bucket] = self._encode(bucket, list(empty))

        self.accesses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def read(self, block_id: int) -> bytes:
        """Oblivious read; unwritten blocks read as zeros."""
        return self._access(block_id, None)

    def write(self, block_id: int, data: bytes) -> None:
        """Oblivious write of one block."""
        if len(data) != self.config.block_bytes:
            raise ValueError(
                f"data must be exactly {self.config.block_bytes} bytes"
            )
        self._access(block_id, data)

    def dummy_access(self) -> None:
        """A protocol-indistinguishable access touching no user block."""
        leaf = self.state.dummy_path()
        self._read_path(leaf)
        self._write_path(leaf)
        self.accesses += 1

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------
    def _access(self, block_id: int, new_data: Optional[bytes]) -> bytes:
        if not 0 <= block_id < self.config.num_user_blocks:
            raise ValueError(f"block id {block_id} out of range")
        old_leaf, new_leaf = self.state.access_begin(block_id)

        self._read_path(old_leaf)

        entry = self.stash.get(block_id)
        if entry is None:
            # First touch: the block logically exists as zeros.
            data = bytes(self.config.block_bytes)
        else:
            data = entry[1].data  # type: ignore[union-attr]
        if new_data is not None:
            data = new_data
        block = Block(block_id, new_leaf, data)
        self.stash.put(block_id, new_leaf, block)

        self._write_path(old_leaf)
        self.accesses += 1
        return data

    def _read_path(self, leaf: int) -> None:
        """Fetch every bucket on the path; real blocks land in the stash.

        Each bucket is opened here and sealed once, by :meth:`_write_path`
        (which rewrites every bucket on the path), as in Path ORAM's
        read-path / write-path pair: the image left in place until then
        is never read.
        """
        for bucket in self.geometry.path_buckets(leaf):
            if self.trace_hook:
                self.trace_hook("read", bucket)
            for block in self._decode(bucket, self._buckets[bucket]):
                self.stash.put(block.block_id, block.leaf, block)

    def _write_path(self, leaf: int) -> None:
        """Greedy write-back along the path, padded with dummies."""
        plan = greedy_evict(
            self.geometry, self.stash, leaf, self.config.bucket_size
        )
        for bucket, block_ids in plan.items():
            blocks = []
            for block_id in block_ids:
                _leaf, block = self.stash.pop(block_id)
                blocks.append(block)
            if self.trace_hook:
                self.trace_hook("write", bucket)
            self._buckets[bucket] = self._encode(bucket, blocks)

    # ------------------------------------------------------------------
    # Bucket (de)serialization through the codec
    # ------------------------------------------------------------------
    def _encode(self, bucket: int, blocks: List[Block]) -> object:
        if self.codec is None:
            return blocks
        tuples = [(b.block_id, b.leaf, b.data) for b in blocks]
        return self.codec.encode_bucket(bucket, tuples,
                                        self.config.bucket_size,
                                        self.config.block_bytes)

    def _decode(self, bucket: int, raw: object) -> List[Block]:
        if self.codec is None:
            return list(raw)  # type: ignore[arg-type]
        tuples = self.codec.decode_bucket(bucket, raw,
                                          self.config.bucket_size,
                                          self.config.block_bytes)
        return [Block(bid, leaf, data) for bid, leaf, data in tuples]

    # ------------------------------------------------------------------
    # Invariant checking (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any protocol-invariant violation."""
        seen = {}
        for bucket in self.geometry.iter_buckets():
            blocks = self._decode(bucket, self._buckets[bucket])
            if len(blocks) > self.config.bucket_size:
                raise AssertionError(
                    f"bucket {bucket} holds {len(blocks)} > Z"
                )
            level = self.geometry.level_of(bucket)
            for block in blocks:
                if block.block_id in seen:
                    raise AssertionError(
                        f"block {block.block_id} duplicated "
                        f"({seen[block.block_id]} and bucket {bucket})"
                    )
                seen[block.block_id] = f"bucket {bucket}"
                # The mapped leaf recorded inside the tree must route
                # through this bucket -- the core placement invariant.
                if self.geometry.bucket_on_path(block.leaf, level) != bucket:
                    raise AssertionError(
                        f"block {block.block_id} in bucket {bucket} "
                        f"off its assigned path (leaf {block.leaf})"
                    )
                mapped = self.state.position_map.lookup(block.block_id)
                if mapped != block.leaf:
                    raise AssertionError(
                        f"block {block.block_id} leaf tag {block.leaf} "
                        f"disagrees with position map {mapped}"
                    )
        for block_id, leaf, _payload in self.stash.items():
            if block_id in seen:
                raise AssertionError(
                    f"block {block_id} both in stash and {seen[block_id]}"
                )
            seen[block_id] = "stash"
