"""Synthetic trace generator: calibration and reproducibility."""

import pytest

from repro.trace.synthetic import SyntheticTrace, TraceParams, with_copy_seed


def measured_mpki(records):
    """Memory accesses per thousand instructions of a record stream;
    each record is its gap's instructions plus the access."""
    accesses = instructions = 0
    for rec in records:
        instructions += rec.gap + 1
        accesses += 1
    return 1000.0 * accesses / instructions if instructions else 0.0


class TestValidation:
    def test_bad_mpki(self):
        with pytest.raises(ValueError):
            TraceParams(mpki=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            TraceParams(mpki=10, write_fraction=1.5)

    def test_tiny_working_set(self):
        with pytest.raises(ValueError):
            TraceParams(mpki=10, working_set_lines=1)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            SyntheticTrace(TraceParams(mpki=10), 0)


class TestCalibration:
    @pytest.mark.parametrize("mpki", [4.2, 12.0, 26.8])
    def test_mpki_within_ten_percent(self, mpki):
        trace = SyntheticTrace(TraceParams(mpki=mpki, seed=3), 20_000)
        measured = measured_mpki(trace)
        assert measured == pytest.approx(mpki, rel=0.10)

    def test_write_fraction(self):
        params = TraceParams(mpki=10, write_fraction=0.3, seed=5)
        records = list(SyntheticTrace(params, 10_000))
        frac = sum(r.is_write for r in records) / len(records)
        assert frac == pytest.approx(0.3, abs=0.02)

    def test_stream_probability_governs_sequentiality(self):
        seq = TraceParams(mpki=10, stream_prob=0.95, seed=7)
        rnd = TraceParams(mpki=10, stream_prob=0.05, seed=7)
        def sequential_fraction(params):
            recs = list(SyntheticTrace(params, 5_000))
            seq_count = sum(
                1 for a, b in zip(recs, recs[1:])
                if b.line_addr == a.line_addr + 1
            )
            return seq_count / len(recs)
        assert sequential_fraction(seq) > 0.8
        assert sequential_fraction(rnd) < 0.2

    def test_addresses_within_working_set(self):
        params = TraceParams(mpki=10, working_set_lines=1000, seed=2)
        assert all(
            r.line_addr < 1000 for r in SyntheticTrace(params, 2_000)
        )


class TestReproducibility:
    def test_same_seed_same_stream(self):
        params = TraceParams(mpki=8, seed=11)
        a = list(SyntheticTrace(params, 500))
        b = list(SyntheticTrace(params, 500))
        assert a == b

    def test_restartable_iterator(self):
        trace = SyntheticTrace(TraceParams(mpki=8, seed=11), 100)
        assert list(trace) == list(trace)

    def test_different_seeds_differ(self):
        a = list(SyntheticTrace(TraceParams(mpki=8, seed=1), 200))
        b = list(SyntheticTrace(TraceParams(mpki=8, seed=2), 200))
        assert a != b

    def test_copy_seed_changes_only_seed(self):
        base = TraceParams(mpki=8, seed=1)
        copy = with_copy_seed(base, 3)
        assert copy.seed != base.seed
        assert copy.mpki == base.mpki
        assert copy.stream_prob == base.stream_prob

    def test_copies_distinct(self):
        base = TraceParams(mpki=8, seed=1)
        streams = [
            list(SyntheticTrace(with_copy_seed(base, i), 100))
            for i in range(3)
        ]
        assert streams[0] != streams[1] != streams[2]
