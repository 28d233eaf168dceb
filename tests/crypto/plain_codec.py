"""An unencrypted bucket codec: the bucket image layout in the clear.

It serializes a bucket exactly as
:class:`repro.crypto.codec.EncryptedBucketCodec` does before it
encrypts, so the tests can inspect an image's structure (fixed size,
dummy padding, the occupancy bound) and run the functional Path ORAM
through a codec without the cipher.
"""

from repro.crypto.codec import BucketCodec, _deserialize, _serialize


class PlainCodec(BucketCodec):
    """Fixed-size serialization only (no confidentiality)."""

    def encode_bucket(self, bucket, blocks, bucket_size, block_bytes):
        return _serialize(blocks, bucket_size, block_bytes)

    def decode_bucket(self, bucket, raw, bucket_size, block_bytes):
        return _deserialize(raw, bucket_size, block_bytes)
