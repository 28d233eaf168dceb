"""AES-128 block cipher, implemented from the FIPS-197 specification.

Pure Python.  Nothing is transcribed: the S-box is derived (multiplicative
inverse in GF(2^8), read off log/antilog tables over the generator {03},
followed by the affine transform), and every round table below is derived
from it at import.

Encryption is the standard word-oriented T-table form of FIPS-197
(Daemen & Rijmen, *The Design of Rijndael*, Section 4.2).  The state is
four 32-bit column words, row 0 in the high byte.  One round's SubBytes,
ShiftRows and MixColumns fold into four 256-entry tables ``Te0..Te3``:
``Te0[x]`` is the column {02}s, s, s, {03}s for ``s = SBOX[x]``, and
``Te1..Te3`` are its byte rotations.  A round is then 16 lookups and XORs
plus the round key word; the final round, which has no MixColumns, uses
the S-box shifted into each byte lane.  The key schedule yields 44 round
key words, and :meth:`AES128.keystream` feeds counter blocks to the
cipher as integers, so CTR mode never round-trips a block through bytes.

This is the cipher behind the paper's Eq. (1) OTP generation and the
bucket re-encryption of the functional ORAM model, so it is the inner
loop of every functional-durability check.  The byte-wise FIPS-197
cipher it replaced lives on in ``tests/crypto/aes_reference.py``, where
the tests compare the two on random keys, blocks and counters, beside
the FIPS-197 Appendix C and SP 800-38A F.5.1 known answers.  CTR mode
only encrypts, so there is no inverse cipher.
"""

from __future__ import annotations

from typing import List

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and table construction
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) mod x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _build_sbox() -> List[int]:
    # {03} generates the multiplicative group, so exp[i] = {03}^i walks
    # all 255 non-zero elements and x^-1 = exp[255 - log[x]].
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)  # x * {03} = x * {02} ^ x
    sbox = []
    for x in range(256):
        b = exp[(255 - log[x]) % 255] if x else 0
        # Affine transform: b ^ rotl(b,1..4) ^ 0x63.
        value = b
        for shift in range(1, 5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(value ^ 0x63)
    return sbox


SBOX: List[int] = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & _M32


#: Round tables: SubBytes + MixColumns for the byte in row 0..3 of a column.
_TE0: List[int] = []
for _s in SBOX:
    _s2 = _xtime(_s)
    _TE0.append((_s2 << 24) | (_s << 16) | (_s << 8) | (_s2 ^ _s))
_TE1: List[int] = [_rotr8(_w) for _w in _TE0]
_TE2: List[int] = [_rotr8(_w) for _w in _TE1]
_TE3: List[int] = [_rotr8(_w) for _w in _TE2]
#: Final-round tables: SubBytes alone, shifted into byte lane 0..2
#: (lane 3 is ``SBOX`` itself).
_S24: List[int] = [_s << 24 for _s in SBOX]
_S16: List[int] = [_s << 16 for _s in SBOX]
_S8: List[int] = [_s << 8 for _s in SBOX]

class AES128:
    """AES with a 128-bit key, encrypting on 32-bit column words."""

    BLOCK_BYTES = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        words = self._expand_key(key)
        #: Round key words grouped per round: 11 tuples of 4.
        self._round_words = [tuple(words[i: i + 4]) for i in range(0, 44, 4)]

    # ------------------------------------------------------------------
    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """FIPS-197 key schedule: 44 round key words, 4 per round."""
        words = [int.from_bytes(key[4 * i: 4 * i + 4], "big")
                 for i in range(4)]
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & _M32   # RotWord
                temp = (_S24[temp >> 24] ^ _S16[(temp >> 16) & 0xFF]
                        ^ _S8[(temp >> 8) & 0xFF] ^ SBOX[temp & 0xFF])
                temp ^= _RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return words

    def _encrypt_int(self, block: int) -> int:
        """Encrypt one 128-bit block held as a big-endian integer."""
        rounds = self._round_words
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        k0, k1, k2, k3 = rounds[0]
        s0 = (block >> 96) ^ k0
        s1 = ((block >> 64) & _M32) ^ k1
        s2 = ((block >> 32) & _M32) ^ k2
        s3 = (block & _M32) ^ k3
        for k0, k1, k2, k3 in rounds[1:10]:
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0,
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1,
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2,
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3,
            )
        s24, s16, s8, s = _S24, _S16, _S8, SBOX
        k0, k1, k2, k3 = rounds[10]
        return (
            (s24[s0 >> 24] ^ s16[(s1 >> 16) & 0xFF]
             ^ s8[(s2 >> 8) & 0xFF] ^ s[s3 & 0xFF] ^ k0) << 96
            | (s24[s1 >> 24] ^ s16[(s2 >> 16) & 0xFF]
               ^ s8[(s3 >> 8) & 0xFF] ^ s[s0 & 0xFF] ^ k1) << 64
            | (s24[s2 >> 24] ^ s16[(s3 >> 16) & 0xFF]
               ^ s8[(s0 >> 8) & 0xFF] ^ s[s1 & 0xFF] ^ k2) << 32
            | (s24[s3 >> 24] ^ s16[(s0 >> 16) & 0xFF]
               ^ s8[(s1 >> 8) & 0xFF] ^ s[s2 & 0xFF] ^ k3)
        )

    # ------------------------------------------------------------------
    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        return self._encrypt_int(
            int.from_bytes(plaintext, "big")
        ).to_bytes(16, "big")

    # ------------------------------------------------------------------
    def keystream(self, nonce: int, counter: int, length: int) -> bytes:
        """CTR-mode keystream: AES(K, nonce || counter..) truncated.

        The 16-byte counter block is ``nonce`` (8 bytes, big endian)
        followed by a per-call incrementing 8-byte block counter that
        wraps modulo 2^64.
        """
        high = (nonce & _M64) << 64
        encrypt = self._encrypt_int
        blocks = -(-length // 16)
        stream = b"".join([
            encrypt(high | ((counter + i) & _M64)).to_bytes(16, "big")
            for i in range(blocks)
        ])
        return stream[:length]
