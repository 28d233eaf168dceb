"""Bucket codecs: fixed-size images, re-encryption, integrity."""

import pytest

from repro.crypto.codec import CodecError, EncryptedBucketCodec, xor_bytes
from tests.crypto.plain_codec import PlainCodec

Z, BLOCK = 4, 64


def blocks(n):
    return [(i, i * 7, bytes([i]) * BLOCK) for i in range(n)]


class TestPlainCodec:
    def test_round_trip(self):
        codec = PlainCodec()
        raw = codec.encode_bucket(3, blocks(2), Z, BLOCK)
        assert codec.decode_bucket(3, raw, Z, BLOCK) == blocks(2)

    def test_fixed_size_regardless_of_occupancy(self):
        codec = PlainCodec()
        sizes = {
            len(codec.encode_bucket(1, blocks(n), Z, BLOCK))
            for n in range(Z + 1)
        }
        assert len(sizes) == 1

    def test_overfull_rejected(self):
        with pytest.raises(CodecError):
            PlainCodec().encode_bucket(1, blocks(Z + 1), Z, BLOCK)

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(CodecError):
            PlainCodec().encode_bucket(1, [(0, 0, b"small")], Z, BLOCK)

    def test_wrong_image_size_rejected(self):
        with pytest.raises(CodecError):
            PlainCodec().decode_bucket(1, b"x" * 10, Z, BLOCK)


class TestEncryptedCodec:
    def make(self):
        return EncryptedBucketCodec(b"T" * 16)

    def test_round_trip(self):
        codec = self.make()
        raw = codec.encode_bucket(5, blocks(3), Z, BLOCK)
        assert codec.decode_bucket(5, raw, Z, BLOCK) == blocks(3)

    def test_reencryption_differs_every_write(self):
        # The whole point of Path ORAM write-back: identical plaintext
        # must produce unlinkable ciphertext on consecutive writes.
        codec = self.make()
        a = codec.encode_bucket(5, blocks(2), Z, BLOCK)
        b = codec.encode_bucket(5, blocks(2), Z, BLOCK)
        assert a != b

    def test_empty_and_full_buckets_same_size(self):
        codec = self.make()
        empty = codec.encode_bucket(1, [], Z, BLOCK)
        full = codec.encode_bucket(1, blocks(Z), Z, BLOCK)
        assert len(empty) == len(full) == codec.image_bytes(Z, BLOCK)

    def test_plaintext_not_visible(self):
        codec = self.make()
        payload = b"\xAA" * BLOCK
        raw = codec.encode_bucket(1, [(9, 3, payload)], Z, BLOCK)
        assert payload not in raw

    def test_tamper_detected(self):
        codec = self.make()
        raw = bytearray(codec.encode_bucket(1, blocks(1), Z, BLOCK))
        raw[30] ^= 1
        with pytest.raises(CodecError, match="MAC"):
            codec.decode_bucket(1, bytes(raw), Z, BLOCK)

    def test_bucket_swap_detected(self):
        # An attacker moving bucket 1's image to bucket 2's slot must be
        # caught: the bucket index is bound into the MAC.
        codec = self.make()
        raw = codec.encode_bucket(1, blocks(1), Z, BLOCK)
        with pytest.raises(CodecError, match="MAC"):
            codec.decode_bucket(2, raw, Z, BLOCK)

    def test_non_bytes_rejected(self):
        with pytest.raises(CodecError):
            self.make().decode_bucket(1, ["not", "bytes"], Z, BLOCK)

    def test_wrong_key_size(self):
        with pytest.raises(ValueError):
            EncryptedBucketCodec(b"short")


class TestXor:
    def test_involution(self):
        a, b = b"hello!", b"worldx"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")
