"""Experiment drivers: structure (tiny scale)."""

import pytest

from repro.analysis import experiments
from tests.analysis.run_memo import run_scheme

TRACE = 500
BENCHES = ("li", "bl")


class TestFig4:
    def test_structure(self):
        data = experiments.fig4(run_scheme, BENCHES, TRACE)
        assert set(data) == set(experiments.FIG4_SCHEMES)
        for rows in data.values():
            assert {"best", "worst", "gmean"} <= set(rows)
            assert rows["best"] <= rows["gmean"] <= rows["worst"]

    def test_corun_always_slower_than_solo(self):
        data = experiments.fig4(run_scheme, BENCHES, TRACE)
        for scheme, rows in data.items():
            for code in BENCHES:
                assert rows[code] > 1.0, (scheme, code)


class TestTable1:
    def test_three_rows_matching_paper(self):
        rows = experiments.table1()
        assert [r["k"] for r in rows] == [1, 2, 3]
        for row in rows:
            assert row["secure_share"] == pytest.approx(
                row["paper_secure"], abs=0.001)
            assert row["layout_secure"] == pytest.approx(
                row["paper_secure"], abs=0.01)


class TestFig9Fig11:
    def test_fig11_sweep_structure(self):
        data = experiments.fig11(run_scheme, ("li",), TRACE,
                                  c_values=(0, 4, 7))
        row = data["li"]
        assert {"c0", "c4", "c7", "7ns-3ch", "7ns-4ch", "best_c"} <= set(row)
        assert row["best_c"] in (0.0, 4.0, 7.0)

    def test_fig9_normalized_to_baseline(self):
        data = experiments.fig9(run_scheme, ("li",), TRACE)
        assert data["li"]["baseline"] == 1.0
        assert "gmean" in data
        # D-ORAM/X is the min over the sweep, so <= plain D-ORAM.
        assert data["li"]["doram_x"] <= data["li"]["doram"] + 1e-9


class TestFig10:
    def test_relative_to_doram(self):
        data = experiments.fig10(run_scheme, ("li",), TRACE, k_values=(1,))
        assert data["li"]["doram"] == 1.0
        assert data["li"]["k1"] > 0
        assert "gmean" in data


class TestFig13:
    def test_latency_ratios_positive(self):
        data = experiments.fig13(run_scheme, ("li",), TRACE)
        for key, value in data["li"].items():
            assert value > 0
