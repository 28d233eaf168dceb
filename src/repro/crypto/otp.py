"""One-time-pad packet encryption (the paper's Eq. (1)).

Before execution the on-chip secure engine and the secure delegator
negotiate a key ``K`` and nonce ``N0``; each 72 B BOB packet is then
sealed as::

    OTP        = AES(K, N0, SeqNum)
    SeqNum     = SeqNum + 1
    Enc_Packet = OTP xor Cleartext_Packet

The OTP depends only on the sequence number, so pads can be pre-generated
off the critical path -- :class:`OtpStream` exposes exactly that, and
:class:`OtpEngine` pairs two streams (one per direction) with MAC-based
authentication so replayed or injected packets are rejected (Section
III-B, step 4).

Memoization
-----------
The D-ORAM wire protocol is a fixed format: every packet is 72 B, so
every pad request is for the same length and pads are consumed strictly
in sequence order.  :class:`OtpStream` therefore keeps the pads it
generates in a small cache keyed by sequence number; the receiver-side
:meth:`OtpStream.pad_for` pops a cached pad instead of re-running AES
when the same stream object serves both ends (loopback tests, replay
checks, pre-generation).  :class:`OtpEngine` counts the hits and misses
in its :class:`~repro.sim.stats.StatSet` so the cache's effect is
observable.
"""

from __future__ import annotations

from typing import Tuple

from repro.crypto.aes import AES128
from repro.crypto.mac import mac_tag, mac_verify
from repro.sim.stats import StatSet

#: AES blocks of keystream each sequence number owns: sequence number
#: ``n`` uses counters ``[n * _BLOCKS_PER_SEQ, (n + 1) * _BLOCKS_PER_SEQ)``.
_BLOCKS_PER_SEQ = 64
#: Longest pad one sequence number can cover without reusing the next
#: one's counters (a two-time pad).
MAX_PAD_BYTES = 16 * _BLOCKS_PER_SEQ

#: Pads kept per stream awaiting their :meth:`OtpStream.pad_for` pickup.
#: Consumption is in-order, so the live window is tiny; the bound only
#: guards against a sender whose receiver never drains.
_PAD_CACHE_LIMIT = 1024


class OtpMismatch(RuntimeError):
    """Authentication or integrity failure on a sealed packet."""


def _check_pad_length(length: int) -> None:
    if not 1 <= length <= MAX_PAD_BYTES:
        raise ValueError(
            f"pad length {length} outside 1..{MAX_PAD_BYTES}: longer pads "
            "would reuse the next sequence number's keystream"
        )


class OtpStream:
    """One direction's pad generator with a monotone sequence number."""

    def __init__(self, key: bytes, nonce: int) -> None:
        self._aes = AES128(key)
        self._nonce = nonce
        self.seq_num = 0
        self._pad_cache: dict = {}

    def next_pad(self, length: int) -> Tuple[int, bytes]:
        """Return ``(seq_num, pad)`` and advance the sequence number.

        Each sequence number gets a disjoint counter range, so pads never
        overlap; a ``length`` outside ``1..MAX_PAD_BYTES`` raises
        ``ValueError``.  The pad is cached for a later :meth:`pad_for` of
        the same sequence number.
        """
        _check_pad_length(length)
        seq = self.seq_num
        self.seq_num += 1
        pad = self._pad_cache.get(seq)
        if pad is None or len(pad) != length:
            pad = self._generate(seq, length)
        if len(self._pad_cache) < _PAD_CACHE_LIMIT:
            self._pad_cache[seq] = pad
        return seq, pad

    def pregenerate(self, count: int, length: int) -> None:
        """Fill the cache for the next ``count`` sequence numbers --
        the paper's off-critical-path pad generation."""
        _check_pad_length(length)
        start = self.seq_num
        cache = self._pad_cache
        for seq in range(start, start + count):
            if seq not in cache and len(cache) < _PAD_CACHE_LIMIT:
                cache[seq] = self._generate(seq, length)

    def pad_for(self, seq: int, length: int) -> bytes:
        """Pad for a known sequence number (receiver side).

        Pops the cached pad when the sender half of this stream already
        generated it; recomputes otherwise.
        """
        _check_pad_length(length)
        pad = self._pad_cache.pop(seq, None)
        if pad is not None and len(pad) == length:
            return pad
        return self._generate(seq, length)

    def cached_pad(self, seq: int) -> bool:
        """True when ``seq``'s pad is sitting in the cache."""
        return seq in self._pad_cache

    def _generate(self, seq: int, length: int) -> bytes:
        return self._aes.keystream(self._nonce, seq * _BLOCKS_PER_SEQ, length)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (single big-int op, not a
    per-byte loop -- this runs once per packet per direction)."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


class OtpEngine:
    """Seals and opens packets between the CPU secure engine and the SD.

    Two independent OTP streams (request and response directions) plus an
    HMAC tag binding the ciphertext to its sequence number: injection
    fails the tag, replay fails the sequence check.  ``stats`` counts
    ``pad_hits`` / ``pad_misses`` of the open path's pad lookup.
    """

    MAC_BYTES = 8

    def __init__(self, key: bytes, nonce: int, name: str = "otp") -> None:
        if len(key) != 16:
            raise ValueError("OtpEngine uses an AES-128 key")
        self._down = OtpStream(key, nonce)
        self._up = OtpStream(key, nonce ^ 0xA5A5A5A5A5A5A5A5)
        self._mac_key = key + b"mac"
        self._expect_down = 0
        self._expect_up = 0
        self.stats = StatSet(name)
        self._pad_hits = self.stats.counter("pad_hits")
        self._pad_misses = self.stats.counter("pad_misses")

    # -- sender side ------------------------------------------------------
    def seal(self, cleartext: bytes, upstream: bool = False) -> bytes:
        stream = self._up if upstream else self._down
        seq, pad = stream.next_pad(len(cleartext))
        body = xor_bytes(cleartext, pad)
        tag = mac_tag(self._mac_key, seq.to_bytes(8, "big") + body,
                      self.MAC_BYTES)
        return seq.to_bytes(8, "big") + body + tag

    # -- receiver side ------------------------------------------------------
    def open(self, sealed: bytes, upstream: bool = False) -> bytes:
        if len(sealed) < 8 + self.MAC_BYTES:
            raise OtpMismatch("packet too short")
        seq = int.from_bytes(sealed[:8], "big")
        body = sealed[8:-self.MAC_BYTES]
        tag = sealed[-self.MAC_BYTES:]
        if not mac_verify(self._mac_key, sealed[:8] + body, tag):
            raise OtpMismatch("MAC check failed (injected packet?)")
        expected = self._expect_up if upstream else self._expect_down
        if seq != expected:
            raise OtpMismatch(
                f"sequence {seq} != expected {expected} (replayed packet?)"
            )
        stream = self._up if upstream else self._down
        if stream.cached_pad(seq):
            self._pad_hits.value += 1
        else:
            self._pad_misses.value += 1
        if upstream:
            self._expect_up += 1
        else:
            self._expect_down += 1
        pad = stream.pad_for(seq, len(body))
        return xor_bytes(body, pad)
