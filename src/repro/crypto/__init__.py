"""Cryptographic primitives for the functional ORAM tree.

:mod:`repro.crypto.aes` implements AES-128 from scratch (validated
against FIPS-197) with a CTR-mode keystream -- the construction of the
paper's Eq. (1) one-time pad, ``AES(K, N0, SeqNum)`` -- and
:mod:`repro.crypto.codec` uses it for the encrypted, authenticated bucket
images the functional Path ORAM stores in untrusted memory.  The secure
link's packet sealing is charged in time only: ``PACKET_BYTES`` on the
wire and the processing delays of the CPU-side session and the delegator.

MACs use HMAC-SHA256 from the standard library -- the paper's
authentication/integrity bits "adopt the similar designs in previous
studies" without fixing a construction, so a standard MAC is faithful.
"""

from repro.crypto.aes import AES128
from repro.crypto.mac import mac_tag, mac_verify
from repro.crypto.codec import BucketCodec, EncryptedBucketCodec

__all__ = [
    "AES128",
    "mac_tag",
    "mac_verify",
    "BucketCodec",
    "EncryptedBucketCodec",
]
