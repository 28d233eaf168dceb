"""Bucket codecs: how Path ORAM buckets look in untrusted memory.

The tree contents must be re-encrypted on every write-back so that an
observer cannot tell which blocks moved (Section II-B).  A codec encodes a
list of ``(block_id, leaf, data)`` tuples into the fixed-size byte image a
bucket occupies (real blocks are indistinguishable from dummy padding) and
back.

:class:`EncryptedBucketCodec` uses AES-CTR encryption with a fresh
per-write counter plus an HMAC tag per bucket: both the probabilistic
re-encryption and the integrity check the paper calls for.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.crypto.aes import AES128
from repro.crypto.mac import mac_tag, mac_verify

#: (block_id, leaf, data) with block_id == _DUMMY_ID marking padding.
BucketTuples = List[Tuple[int, int, bytes]]

_DUMMY_ID = 0xFFFFFFFFFFFFFFFF
_HEADER = struct.Struct(">QQ")  # block_id, leaf


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (single big-int op, not a
    per-byte loop -- this runs on every bucket image sealed or opened)."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


@lru_cache(maxsize=8)
def _dummy_slots(count: int, block_bytes: int) -> bytes:
    """The padding tail of a bucket image.

    Dummy slots are a fixed byte pattern per geometry, yet every encode
    used to rebuild them slot by slot; buckets are mostly padding (Z=4
    with ~1 real block typical), so this is the bulk of serialization.
    """
    return (_HEADER.pack(_DUMMY_ID, 0) + bytes(block_bytes)) * count


class CodecError(RuntimeError):
    """Malformed, tampered, or replayed bucket image."""


class BucketCodec:
    """Interface: see :meth:`encode_bucket` / :meth:`decode_bucket`."""

    def encode_bucket(
        self, bucket: int, blocks: BucketTuples, bucket_size: int,
        block_bytes: int,
    ) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def decode_bucket(
        self, bucket: int, raw: bytes, bucket_size: int, block_bytes: int,
    ) -> BucketTuples:  # pragma: no cover - interface
        raise NotImplementedError


def _serialize(blocks: BucketTuples, bucket_size: int, block_bytes: int) -> bytes:
    if len(blocks) > bucket_size:
        raise CodecError(f"{len(blocks)} blocks exceed Z={bucket_size}")
    out = bytearray()
    for block_id, leaf, data in blocks:
        if len(data) != block_bytes:
            raise CodecError("wrong block payload size")
        out += _HEADER.pack(block_id, leaf) + data
    padding = bucket_size - len(blocks)
    if padding:
        out += _dummy_slots(padding, block_bytes)
    return bytes(out)


def _deserialize(raw: bytes, bucket_size: int, block_bytes: int) -> BucketTuples:
    slot_bytes = _HEADER.size + block_bytes
    if len(raw) != bucket_size * slot_bytes:
        raise CodecError("wrong bucket image size")
    blocks: BucketTuples = []
    for i in range(bucket_size):
        chunk = raw[i * slot_bytes: (i + 1) * slot_bytes]
        block_id, leaf = _HEADER.unpack(chunk[: _HEADER.size])
        if block_id == _DUMMY_ID:
            continue
        blocks.append((block_id, leaf, chunk[_HEADER.size:]))
    return blocks


class EncryptedBucketCodec(BucketCodec):
    """AES-CTR + HMAC bucket sealing with per-write freshness.

    Every encode uses a new global write counter as the CTR nonce, so two
    writes of identical plaintext produce unrelated ciphertexts -- the
    "re-encrypt after each access" requirement.  The counter is stored in
    the image head (an observer learns only write recency, which it can
    see anyway) and bound into the MAC together with the bucket index, so
    images cannot be swapped between buckets undetected.

    A pad depends only on the key and the counter, so the codec keeps,
    per bucket index, the ``(counter, pad)`` of the last image it sealed
    there, and a decode that has verified the MAC opens an image carrying
    that counter with the kept pad instead of running AES again.  Any
    other image (an older one, or one another codec with the same key
    sealed) gets its pad regenerated.  The pads stay on the trusted side
    with the key, one per bucket index sealed.
    """

    MAC_BYTES = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("EncryptedBucketCodec uses an AES-128 key")
        self._aes = AES128(key)
        self._mac_key = key + b"bucket-mac"
        self._write_counter = 0
        # Bucket index -> (counter, pad) of the last image sealed there.
        self._pads: Dict[int, Tuple[int, bytes]] = {}

    def image_bytes(self, bucket_size: int, block_bytes: int) -> int:
        """Size of the stored image for geometry checks."""
        return 8 + bucket_size * (_HEADER.size + block_bytes) + self.MAC_BYTES

    def encode_bucket(self, bucket, blocks, bucket_size, block_bytes):
        plain = _serialize(blocks, bucket_size, block_bytes)
        counter = self._write_counter
        self._write_counter += 1
        pad = self._aes.keystream(counter, 0, len(plain))
        self._pads[bucket] = (counter, pad)
        cipher = xor_bytes(plain, pad)
        head = counter.to_bytes(8, "big")
        tag = mac_tag(self._mac_key,
                      head + bucket.to_bytes(8, "big") + cipher,
                      self.MAC_BYTES)
        return head + cipher + tag

    def decode_bucket(self, bucket, raw, bucket_size, block_bytes):
        if not isinstance(raw, (bytes, bytearray)):
            raise CodecError("encrypted codec expects a byte image")
        if len(raw) != self.image_bytes(bucket_size, block_bytes):
            raise CodecError("wrong encrypted image size")
        head, cipher, tag = raw[:8], raw[8:-self.MAC_BYTES], raw[-self.MAC_BYTES:]
        if not mac_verify(self._mac_key,
                          head + bucket.to_bytes(8, "big") + cipher, tag):
            raise CodecError(f"bucket {bucket}: MAC check failed")
        counter = int.from_bytes(head, "big")
        kept = self._pads.get(bucket)
        if kept and kept[0] == counter and len(kept[1]) == len(cipher):
            pad = kept[1]
        else:
            pad = self._aes.keystream(counter, 0, len(cipher))
        plain = xor_bytes(cipher, pad)
        return _deserialize(plain, bucket_size, block_bytes)
