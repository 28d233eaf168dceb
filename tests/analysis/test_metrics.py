"""Summary metrics."""

import pytest

from repro.analysis.metrics import summarize_best_worst_gmean


class TestSummary:
    def test_best_worst_gmean(self):
        best, worst, gm = summarize_best_worst_gmean([1.0, 2.0, 4.0])
        assert best == 1.0
        assert worst == 4.0
        assert gm == pytest.approx(2.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize_best_worst_gmean([])
