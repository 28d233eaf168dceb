"""AES-128 against FIPS-197, SP 800-38A, the byte-wise reference, and
structural properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, SBOX
from tests.crypto import aes_reference as ref
from tests.crypto.aes_reference import gf_mul

_blocks = st.binary(min_size=16, max_size=16)


class TestGaloisField:
    def test_identity(self):
        assert gf_mul(0x57, 1) == 0x57

    def test_fips_example(self):
        # FIPS-197 Section 4.2: {57} x {83} = {c1}.
        assert gf_mul(0x57, 0x83) == 0xC1

    def test_xtime_chain(self):
        # {57} x {13} = {fe} (FIPS-197 4.2.1 worked example).
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_commutative(self):
        for a, b in [(0x03, 0x09), (0x0E, 0x0B), (0xFF, 0x02)]:
            assert gf_mul(a, b) == gf_mul(b, a)


class TestSbox:
    def test_known_entries(self):
        # FIPS-197 Figure 7 spot checks.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_no_fixed_points(self):
        assert all(SBOX[i] != i for i in range(256))

    def test_matches_exhaustive_inverse_scan(self):
        # The log/antilog derivation against the 255x255 inverse search.
        assert SBOX == ref.SBOX


class TestCipher:
    KEY = bytes(range(16))
    PT = bytes.fromhex("00112233445566778899aabbccddeeff")
    CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_fips197_appendix_c(self):
        assert AES128(self.KEY).encrypt_block(self.PT) == self.CT

    def test_key_sensitivity(self):
        ct1 = AES128(b"\x00" * 16).encrypt_block(self.PT)
        ct2 = AES128(b"\x00" * 15 + b"\x01").encrypt_block(self.PT)
        assert ct1 != ct2

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            AES128(self.KEY).encrypt_block(b"tiny")


class TestKeystream:
    def test_length_exact(self):
        aes = AES128(b"k" * 16)
        assert len(aes.keystream(0, 0, 72)) == 72
        assert len(aes.keystream(0, 0, 16)) == 16
        assert len(aes.keystream(0, 0, 1)) == 1

    def test_deterministic(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(5, 9, 64) == aes.keystream(5, 9, 64)

    def test_counter_separates_streams(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(0, 0, 32) != aes.keystream(0, 64, 32)

    def test_nonce_separates_streams(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(1, 0, 32) != aes.keystream(2, 0, 32)

    def test_prefix_property(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(3, 0, 64)[:32] == aes.keystream(3, 0, 32)

    def test_nist_sp800_38a_f51_ctr_aes128(self):
        # SP 800-38A F.5.1: initial counter block f0f1..feff, whose low
        # 8 bytes never carry into the high 8 over these four blocks.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        ciphertext = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )
        pad = AES128(key).keystream(0xF0F1F2F3F4F5F6F7, 0xF8F9FAFBFCFDFEFF, 64)
        assert bytes(p ^ k for p, k in zip(plaintext, pad)) == ciphertext

    def test_counter_wraps_at_2_64(self):
        aes = AES128(b"k" * 16)
        nonce = 0x0123456789ABCDEE  # even: a carry into bit 64 would show
        blocks = [
            aes.encrypt_block(nonce.to_bytes(8, "big") + c.to_bytes(8, "big"))
            for c in (2**64 - 2, 2**64 - 1, 0, 1)
        ]
        assert aes.keystream(nonce, 2**64 - 2, 64) == b"".join(blocks)
        # Counters and nonces are taken modulo 2^64.
        assert aes.keystream(nonce, 2**64 + 5, 40) == aes.keystream(nonce, 5, 40)
        assert aes.keystream(nonce + 2**64, 3, 40) == aes.keystream(nonce, 3, 40)


class TestAgainstReference:
    """The T-table cipher against the byte-wise FIPS-197 reference."""

    def test_reference_passes_fips197_appendix_c(self):
        assert ref.encrypt_block(TestCipher.KEY, TestCipher.PT) == TestCipher.CT

    @settings(max_examples=200, deadline=None)
    @given(key=_blocks, block=_blocks)
    def test_encrypt_block_matches(self, key, block):
        assert AES128(key).encrypt_block(block) == ref.encrypt_block(key, block)

    @settings(max_examples=60, deadline=None)
    @given(
        key=_blocks,
        nonce=st.integers(min_value=0, max_value=2**72),
        counter=st.one_of(
            st.integers(min_value=0, max_value=2**72),
            st.integers(min_value=2**64 - 4, max_value=2**64 - 1),
        ),
        length=st.integers(min_value=0, max_value=160),
    )
    def test_keystream_matches(self, key, nonce, counter, length):
        assert (AES128(key).keystream(nonce, counter, length)
                == ref.keystream(key, nonce, counter, length))
