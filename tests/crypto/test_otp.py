"""OTP packet sealing (Eq. (1)): confidentiality, auth, replay defense."""

import pytest

from repro.crypto.aes import AES128
from repro.crypto.otp import (
    MAX_PAD_BYTES,
    OtpEngine,
    OtpMismatch,
    OtpStream,
    xor_bytes,
)


def engine_pair():
    """CPU-side and SD-side engines sharing (K, N0)."""
    return OtpEngine(b"K" * 16, 7), OtpEngine(b"K" * 16, 7)


class TestOtpStream:
    def test_sequence_advances(self):
        stream = OtpStream(b"K" * 16, 1)
        s0, _ = stream.next_pad(72)
        s1, _ = stream.next_pad(72)
        assert (s0, s1) == (0, 1)

    def test_pads_disjoint_across_seq(self):
        stream = OtpStream(b"K" * 16, 1)
        _, pad0 = stream.next_pad(72)
        _, pad1 = stream.next_pad(72)
        assert pad0 != pad1

    def test_receiver_recomputes_pad(self):
        sender = OtpStream(b"K" * 16, 1)
        receiver = OtpStream(b"K" * 16, 1)
        seq, pad = sender.next_pad(72)
        assert receiver.pad_for(seq, 72) == pad

    def test_pad_not_data_dependent(self):
        # Eq. (1): the OTP depends only on (K, N0, SeqNum), so it can be
        # pre-generated before the packet content exists.
        stream_a = OtpStream(b"K" * 16, 1)
        stream_b = OtpStream(b"K" * 16, 1)
        assert stream_a.next_pad(72) == stream_b.next_pad(72)

    def test_next_pad_caches_for_pad_for(self):
        stream = OtpStream(b"K" * 16, 1)
        seq, pad = stream.next_pad(72)
        assert stream.cached_pad(seq)
        assert stream.pad_for(seq, 72) == pad
        # pad_for pops: the cached copy is consumed exactly once.
        assert not stream.cached_pad(seq)

    def test_cached_pad_ignored_on_length_mismatch(self):
        stream = OtpStream(b"K" * 16, 1)
        seq, _ = stream.next_pad(8)
        fresh = OtpStream(b"K" * 16, 1)
        assert stream.pad_for(seq, 72) == fresh.pad_for(seq, 72)

    @pytest.mark.parametrize("length", [0, -1, MAX_PAD_BYTES + 1, 1040])
    def test_pad_length_outside_counter_range_rejected(self, length):
        # A pad longer than one sequence number's counter range would
        # reuse the next sequence number's keystream: a two-time pad.
        stream = OtpStream(b"K" * 16, 1)
        with pytest.raises(ValueError, match="pad length"):
            stream.next_pad(length)
        with pytest.raises(ValueError, match="pad length"):
            stream.pregenerate(1, length)
        with pytest.raises(ValueError, match="pad length"):
            stream.pad_for(0, length)
        assert stream.seq_num == 0
        assert not stream.cached_pad(0)

    def test_longest_pads_tile_the_keystream(self):
        # Full-length pads of consecutive sequence numbers are adjacent,
        # disjoint slices of one CTR keystream.
        stream = OtpStream(b"K" * 16, 1)
        pads = [stream.next_pad(MAX_PAD_BYTES)[1] for _ in range(2)]
        assert b"".join(pads) == AES128(b"K" * 16).keystream(
            1, 0, 2 * MAX_PAD_BYTES
        )

    def test_pregenerate_matches_next_pad(self):
        warm = OtpStream(b"K" * 16, 1)
        warm.pregenerate(4, 72)
        cold = OtpStream(b"K" * 16, 1)
        for _ in range(4):
            assert warm.next_pad(72) == cold.next_pad(72)


class TestXor:
    def test_involution(self):
        a, b = b"hello!", b"worldx"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestOtpEngine:
    def test_round_trip(self):
        cpu, sd = engine_pair()
        msg = b"request".ljust(72, b"\0")
        assert sd.open(cpu.seal(msg)) == msg

    def test_directions_independent(self):
        cpu, sd = engine_pair()
        down = cpu.seal(b"d" * 72)
        up = sd.seal(b"u" * 72, upstream=True)
        assert sd.open(down) == b"d" * 72
        assert cpu.open(up, upstream=True) == b"u" * 72

    def test_ciphertext_differs_from_plaintext(self):
        cpu, _ = engine_pair()
        msg = b"m" * 72
        assert msg not in cpu.seal(msg)

    def test_identical_messages_encrypt_differently(self):
        cpu, _ = engine_pair()
        msg = b"m" * 72
        assert cpu.seal(msg) != cpu.seal(msg)

    def test_tampered_packet_rejected(self):
        cpu, sd = engine_pair()
        sealed = bytearray(cpu.seal(b"m" * 72))
        sealed[20] ^= 0x01
        with pytest.raises(OtpMismatch, match="MAC"):
            sd.open(bytes(sealed))

    def test_replayed_packet_rejected(self):
        cpu, sd = engine_pair()
        first = cpu.seal(b"a" * 72)
        sd.open(first)
        with pytest.raises(OtpMismatch, match="sequence"):
            sd.open(first)

    def test_reordered_packet_rejected(self):
        cpu, sd = engine_pair()
        cpu.seal(b"a" * 72)  # seq 0, dropped in transit
        second = cpu.seal(b"b" * 72)  # seq 1
        with pytest.raises(OtpMismatch, match="sequence"):
            sd.open(second)

    def test_short_packet_rejected(self):
        _, sd = engine_pair()
        with pytest.raises(OtpMismatch, match="short"):
            sd.open(b"tiny")

    def test_wrong_key_size(self):
        with pytest.raises(ValueError):
            OtpEngine(b"short", 0)

    def test_pad_cache_stats(self):
        # Loopback: the same engine seals and opens, so the open path
        # finds every pad in the stream cache.
        loop = OtpEngine(b"K" * 16, 7)
        for i in range(5):
            assert loop.open(loop.seal(bytes([i]) * 72)) == bytes([i]) * 72
        assert loop.stats.counter("pad_hits").value == 5
        assert loop.stats.counter("pad_misses").value == 0
        # Separate peer engines never share pads: all misses.
        cpu, sd = engine_pair()
        sd.open(cpu.seal(b"m" * 72))
        assert sd.stats.counter("pad_hits").value == 0
        assert sd.stats.counter("pad_misses").value == 1

    def test_cache_hit_decrypts_correctly(self):
        loop = OtpEngine(b"K" * 16, 9)
        msg = b"payload!".ljust(72, b"\xaa")
        assert loop.open(loop.seal(msg)) == msg
