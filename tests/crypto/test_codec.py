"""Bucket codecs: fixed-size images, re-encryption, integrity."""

import pytest

from repro.crypto.aes import AES128
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


@pytest.fixture
def keystreams(monkeypatch):
    """Count AES128.keystream calls (every codec's pad generation)."""
    calls = []
    original = AES128.keystream

    def counting(self, nonce, counter, length):
        calls.append(nonce)
        return original(self, nonce, counter, length)

    monkeypatch.setattr(AES128, "keystream", counting)
    return calls


class TestKeystreamReuse:
    """A decode opens the last image a codec sealed at a bucket with the
    pad that sealed it; every other image gets its pad regenerated."""

    def make(self):
        return EncryptedBucketCodec(b"T" * 16)

    def test_own_image_opens_without_keystream(self, keystreams):
        codec = self.make()
        raw = codec.encode_bucket(5, blocks(3), Z, BLOCK)
        assert len(keystreams) == 1
        assert codec.decode_bucket(5, raw, Z, BLOCK) == blocks(3)
        assert codec.decode_bucket(5, raw, Z, BLOCK) == blocks(3)
        assert len(keystreams) == 1

    def test_fresh_codec_same_key_regenerates(self, keystreams):
        raw = self.make().encode_bucket(5, blocks(2), Z, BLOCK)
        other = self.make()
        assert other.decode_bucket(5, raw, Z, BLOCK) == blocks(2)
        assert len(keystreams) == 2

    def test_older_image_regenerates_its_own_pad(self, keystreams):
        codec = self.make()
        old = codec.encode_bucket(5, blocks(1), Z, BLOCK)
        new = codec.encode_bucket(5, blocks(3), Z, BLOCK)
        assert codec.decode_bucket(5, old, Z, BLOCK) == blocks(1)
        assert len(keystreams) == 3
        assert codec.decode_bucket(5, new, Z, BLOCK) == blocks(3)
        assert len(keystreams) == 3

    def test_same_counter_other_geometry_regenerates(self, keystreams):
        # Two codecs with one key seal bucket 5 at counter 0, at
        # different image sizes: neither kept pad fits the other image.
        wide, narrow = self.make(), self.make()
        raw = wide.encode_bucket(5, blocks(3), Z, BLOCK)
        narrow.encode_bucket(5, blocks(1), 2, BLOCK)
        assert narrow.decode_bucket(5, raw, Z, BLOCK) == blocks(3)
        assert len(keystreams) == 3

    @pytest.mark.parametrize("offset", [3, 30, -3])
    def test_flip_detected_while_pad_kept(self, offset):
        # Offsets in the counter head, the ciphertext and the tag.
        codec = self.make()
        raw = bytearray(codec.encode_bucket(1, blocks(1), Z, BLOCK))
        raw[offset] ^= 1
        with pytest.raises(CodecError, match="MAC"):
            codec.decode_bucket(1, bytes(raw), Z, BLOCK)

    def test_swap_detected_while_pads_kept(self):
        codec = self.make()
        one = codec.encode_bucket(1, blocks(1), Z, BLOCK)
        codec.encode_bucket(2, blocks(2), Z, BLOCK)
        with pytest.raises(CodecError, match="MAC"):
            codec.decode_bucket(2, one, Z, BLOCK)

    def test_one_kept_pad_per_bucket_index(self):
        codec = self.make()
        for bucket in (1, 2, 1, 3, 1, 2):
            codec.encode_bucket(bucket, blocks(1), Z, BLOCK)
        assert sorted(codec._pads) == [1, 2, 3]
        assert codec._pads[1][0] == 4


class TestXor:
    def test_involution(self):
        a, b = b"hello!", b"worldx"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")
