"""Byte-wise FIPS-197 AES-128 encryption: the reference the tests trust.

This is the straightforward specification form -- a 16-byte column-major
state, SubBytes / ShiftRows / MixColumns / AddRoundKey as separate
steps, MixColumns through full GF(2^8) multiplication, and the S-box
built from an exhaustive search for multiplicative inverses.  It is slow
on purpose: every step can be read against FIPS-197 Section 5.1.  The
T-table cipher in :mod:`repro.crypto.aes` is checked against it.
"""

from __future__ import annotations

from typing import List

from repro.crypto.aes import gf_mul

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def exhaustive_sbox() -> List[int]:
    """S-box from a 255x255 scan for each element's inverse."""
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = []
    for x in range(256):
        b = inverse[x]
        # Affine transform: b ^ rotl(b,1..4) ^ 0x63.
        value = b
        for shift in range(1, 5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(value ^ 0x63)
    return sbox


SBOX = exhaustive_sbox()


def expand_key(key: bytes) -> List[List[int]]:
    """FIPS-197 key schedule: 11 round keys of 16 bytes each."""
    words: List[List[int]] = [list(key[4 * i: 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]            # RotWord
            temp = [SBOX[b] for b in temp]        # SubWord
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [
        sum((words[4 * r + c] for c in range(4)), [])
        for r in range(11)
    ]


def _add_round_key(state: List[int], rk: List[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def _sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _shift_rows(state: List[int]) -> None:
    # state[col*4 + row]; row r rotates left by r.
    for row in range(1, 4):
        values = [state[col * 4 + row] for col in range(4)]
        values = values[row:] + values[:row]
        for col in range(4):
            state[col * 4 + row] = values[col]


def _mix_columns(state: List[int]) -> None:
    for col in range(4):
        a = state[col * 4: col * 4 + 4]
        state[col * 4 + 0] = gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3]
        state[col * 4 + 1] = a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3]
        state[col * 4 + 2] = a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3)
        state[col * 4 + 3] = gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2)


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """FIPS-197 Cipher(): one block under ``key``."""
    round_keys = expand_key(key)
    state = list(plaintext)
    _add_round_key(state, round_keys[0])
    for round_no in range(1, 10):
        _sub_bytes(state)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[round_no])
    _sub_bytes(state)
    _shift_rows(state)
    _add_round_key(state, round_keys[10])
    return bytes(state)


def keystream(key: bytes, nonce: int, counter: int, length: int) -> bytes:
    """CTR keystream with the counter block built byte by byte."""
    out = bytearray()
    block_index = 0
    while len(out) < length:
        block = (
            (nonce & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
            + ((counter + block_index) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        )
        out.extend(encrypt_block(key, block))
        block_index += 1
    return bytes(out[:length])
