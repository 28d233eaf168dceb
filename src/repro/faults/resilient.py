"""Functional durability under transient memory faults.

The timing layers (:mod:`repro.core.recovery`, :mod:`repro.faults.inject`)
model *when* a corrupted read is detected and retried; this module closes
the loop on *what*: a :class:`ResilientPathOram` runs the real functional
Path ORAM (:class:`repro.oram.path_oram.PathOram`) over sealed buckets
(:class:`repro.crypto.codec.EncryptedBucketCodec`) while a seeded fault
process flips bits in fetched images.  Every flip trips the per-bucket
MAC (:class:`~repro.crypto.codec.CodecError`), the fetch is retried
against the intact stored copy -- a *transient* fault corrupts the wire
or the sense path, not the cell array -- and the access completes with
verified data only.

:func:`durability_check` is the end-to-end oracle the invariant harness
(:mod:`repro.faults.invariants`) runs: under any bounded fault schedule,
every read returns the last value written, the placement invariant holds,
and the stash stays within its bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.codec import CodecError, EncryptedBucketCodec
from repro.faults.plan import site_rng
from repro.oram.config import OramConfig
from repro.oram.path_oram import Block, PathOram


class DurabilityError(AssertionError):
    """A read returned something other than the last written value."""


class ResilientPathOram(PathOram):
    """Functional Path ORAM whose bucket fetches suffer transient flips.

    ``flip_rate`` is the per-fetch probability of a transient bit-flip in
    the returned image (drawn from a :func:`~repro.faults.plan.site_rng`
    stream, so a given ``(seed, flip_rate)`` pair corrupts the same
    fetches in every run).  A flipped fetch fails MAC verification and is
    re-read, up to ``retry_limit`` times per bucket fetch; the stored
    image itself is never damaged, which is exactly the DRAM transient
    model of the fault plan's ``dram`` rules.
    """

    def __init__(
        self,
        config: OramConfig,
        seed: int = 0,
        flip_rate: float = 0.0,
        retry_limit: int = 16,
        stash_capacity: Optional[int] = 500,
        key: bytes = b"durability-key16",
    ) -> None:
        if not 0.0 <= flip_rate < 1.0:
            raise ValueError("flip_rate must be in [0, 1)")
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        super().__init__(
            config, seed=seed, codec=EncryptedBucketCodec(key),
            stash_capacity=stash_capacity,
        )
        self.flip_rate = flip_rate
        self.retry_limit = retry_limit
        self._fault_rng = site_rng(seed, "functional", "dram")
        self.flips_injected = 0
        self.flips_detected = 0
        self.rereads = 0

    def _fetch(self, bucket: int, raw: bytes) -> bytes:
        """One memory read of a bucket image, possibly flipped in flight."""
        if self.flip_rate and self._fault_rng.random() < self.flip_rate:
            self.flips_injected += 1
            byte = self._fault_rng.randrange(len(raw))
            bit = 1 << self._fault_rng.randrange(8)
            flipped = bytearray(raw)
            flipped[byte] ^= bit
            return bytes(flipped)
        return raw

    def _decode(self, bucket: int, raw: object) -> List[Block]:
        for attempt in range(self.retry_limit + 1):
            try:
                return super()._decode(bucket, self._fetch(bucket, raw))
            except CodecError:
                # MAC caught the flip: transient, so re-read the intact
                # stored image.
                self.flips_detected += 1
                self.rereads += 1
        raise CodecError(
            f"bucket {bucket}: {self.retry_limit + 1} consecutive fetches "
            f"failed MAC verification; retry bound exhausted"
        )

    def fault_stats(self) -> Dict[str, int]:
        return {
            "flips_injected": self.flips_injected,
            "flips_detected": self.flips_detected,
            "rereads": self.rereads,
            "stash_peak": self.stash.peak,
        }


def durability_check(
    oram: ResilientPathOram,
    num_ops: int = 200,
    seed: int = 0,
) -> Dict[str, int]:
    """Random read/write workload with a shadow map as ground truth.

    Raises :class:`DurabilityError` on the first read that disagrees with
    the last write (or a non-zero first read), and re-checks the
    protocol's structural invariants at the end.  Returns the ORAM's
    fault counters merged with workload accounting.
    """
    rng = site_rng(seed, "functional", "workload")
    shadow: Dict[int, bytes] = {}
    blocks = oram.config.num_user_blocks
    block_bytes = oram.config.block_bytes
    reads = writes = 0
    for op_index in range(num_ops):
        block_id = rng.randrange(blocks)
        if rng.random() < 0.5:
            data = bytes(
                rng.getrandbits(8) for _ in range(block_bytes)
            )
            oram.write(block_id, data)
            shadow[block_id] = data
            writes += 1
        else:
            got = oram.read(block_id)
            want = shadow.get(block_id, bytes(block_bytes))
            if got != want:
                raise DurabilityError(
                    f"op {op_index}: read of block {block_id} returned "
                    f"{got[:8].hex()}..., last write was "
                    f"{want[:8].hex()}..."
                )
            reads += 1
    # Every detected flip must have been injected by us -- the codec
    # never fails on clean fetches.
    if oram.flips_detected != oram.flips_injected:
        raise DurabilityError(
            f"{oram.flips_detected} MAC failures vs "
            f"{oram.flips_injected} injected flips"
        )
    oram.check_invariants()
    out = oram.fault_stats()
    out["reads"] = reads
    out["writes"] = writes
    return out
