"""Table III benchmark catalog."""

import pytest

from repro.trace.benchmarks import (
    BENCHMARKS,
    benchmark_by_code,
    benchmark_trace,
)

#: The paper's Table III MPKI values, verbatim.
PAPER_MPKI = {
    "black": 4.2, "face": 26.8, "ferret": 8.0, "fluid": 17.5,
    "stream": 12.9, "swapt": 10.9,
    "comm1": 7.3, "comm2": 12.6, "comm3": 4.2, "comm4": 3.7, "comm5": 4.5,
    "leslie": 23.1, "libq": 12.0,
    "mummer": 24.0, "tigr": 6.7,
}


class TestCatalog:
    def test_fifteen_benchmarks(self):
        assert len(BENCHMARKS) == 15

    def test_mpki_matches_table3(self):
        for spec in BENCHMARKS:
            assert spec.mpki == PAPER_MPKI[spec.name], spec.name

    def test_suites_match_table3(self):
        suites = {}
        for spec in BENCHMARKS:
            suites.setdefault(spec.suite, []).append(spec.name)
        assert len(suites["PARSEC"]) == 6
        assert len(suites["COMM"]) == 5
        assert len(suites["SPEC"]) == 2
        assert len(suites["BIOBENCH"]) == 2

    def test_codes_unique(self):
        codes = [b.code for b in BENCHMARKS]
        assert len(set(codes)) == len(codes)

    def test_lookup_by_code_and_name(self):
        assert benchmark_by_code("li").name == "libq"
        assert benchmark_by_code("libq").code == "li"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            benchmark_by_code("nope")


class TestTraceGeneration:
    def test_mpki_approximately_honored(self):
        spec = benchmark_by_code("mu")
        records = list(benchmark_trace("mu", 10_000))
        instructions = sum(r.gap + 1 for r in records)
        measured = 1000.0 * len(records) / instructions
        assert measured == pytest.approx(spec.mpki, rel=0.12)

    def test_copies_differ(self):
        a = list(benchmark_trace("li", 200, copy_index=0))
        b = list(benchmark_trace("li", 200, copy_index=1))
        assert a != b

    def test_segments_differ(self):
        a = list(benchmark_trace("li", 200, segment=0))
        b = list(benchmark_trace("li", 200, segment=1))
        assert a != b

    def test_deterministic(self):
        assert list(benchmark_trace("bl", 200)) == list(benchmark_trace("bl", 200))

    def test_streaming_benchmark_is_streaming(self):
        recs = list(benchmark_trace("li", 2_000))
        seq = sum(1 for a, b in zip(recs, recs[1:])
                  if b.line_addr == a.line_addr + 1)
        assert seq / len(recs) > 0.8

    def test_pointer_chaser_is_not(self):
        recs = list(benchmark_trace("mu", 2_000))
        seq = sum(1 for a, b in zip(recs, recs[1:])
                  if b.line_addr == a.line_addr + 1)
        assert seq / len(recs) < 0.3
