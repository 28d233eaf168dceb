"""Protocol shape of the functional Path ORAM's cipher work.

Path ORAM reads every bucket on the path into the stash and writes each
one back once, re-encrypted: an access opens and seals exactly the
``leaf_level + 1`` buckets of one root-to-leaf path, each once, and
building the tree seals every bucket once.  With the codec opening an
image it sealed with the pad that sealed it, the durability oracle's AES
work is one keystream per sealed image.
"""

import random

import pytest

from repro.crypto.aes import AES128
from repro.crypto.codec import EncryptedBucketCodec
from repro.faults.invariants import FUNCTIONAL_FLIP_RATE
from repro.faults.resilient import ResilientPathOram, durability_check
from repro.oram.config import OramConfig
from repro.oram.path_oram import PathOram

CONFIG = OramConfig(leaf_level=5)


class CountingCodec(EncryptedBucketCodec):
    """Records the bucket index of every seal and every open."""

    def __init__(self, key):
        super().__init__(key)
        self.sealed = []
        self.opened = []

    def encode_bucket(self, bucket, blocks, bucket_size, block_bytes):
        self.sealed.append(bucket)
        return super().encode_bucket(bucket, blocks, bucket_size,
                                     block_bytes)

    def decode_bucket(self, bucket, raw, bucket_size, block_bytes):
        self.opened.append(bucket)
        return super().decode_bucket(bucket, raw, bucket_size, block_bytes)


def make_oram():
    return PathOram(CONFIG, seed=3, codec=CountingCodec(b"S" * 16))


def test_construction_seals_each_bucket_once():
    oram = make_oram()
    assert oram.codec.sealed == list(oram.geometry.iter_buckets())
    assert oram.codec.opened == []


@pytest.mark.parametrize("op", ["read", "write", "dummy_access"])
def test_access_opens_and_seals_its_path_once(op):
    oram = make_oram()
    rng = random.Random(5)
    for _ in range(30):
        oram.codec.sealed.clear()
        oram.codec.opened.clear()
        block_id = rng.randrange(oram.config.num_user_blocks)
        if op == "read":
            oram.read(block_id)
        elif op == "write":
            oram.write(block_id, rng.randbytes(oram.config.block_bytes))
        else:
            oram.dummy_access()
        opened, sealed = oram.codec.opened, oram.codec.sealed
        assert len(opened) == len(sealed) == CONFIG.leaf_level + 1
        leaf = opened[-1] - (1 << CONFIG.leaf_level)
        assert opened == oram.geometry.path_buckets(leaf)
        assert sorted(sealed) == sorted(opened)


def test_chaos_cell_oracle_keystream_budget(monkeypatch):
    """The invariant harness's oracle (leaf level 5, 20 operations) makes
    one keystream per sealed image: 63 at construction plus 6 per
    operation, while every open, retries included, reuses a kept pad."""
    calls = []
    original = AES128.keystream

    def counting(self, nonce, counter, length):
        calls.append(nonce)
        return original(self, nonce, counter, length)

    monkeypatch.setattr(AES128, "keystream", counting)
    oram = ResilientPathOram(CONFIG, seed=5, flip_rate=FUNCTIONAL_FLIP_RATE)
    stats = durability_check(oram, num_ops=20, seed=5)
    assert stats["rereads"] > 0
    assert len(calls) == CONFIG.num_buckets + 20 * (CONFIG.leaf_level + 1)
    assert len(calls) == 183
