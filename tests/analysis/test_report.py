"""Report generator and the registry's checks (tiny scale)."""

import contextlib
import io
import os

import pytest

from repro.analysis import experiments
from repro.analysis.report import (
    REPORT_BEGIN,
    REPORT_END,
    _DEVIATIONS,
    render_report,
)
from repro.analysis.sweep import RunPoint
from repro.cli import main


@pytest.fixture(scope="module")
def simulate_once():
    """Each point simulates once for the module: ``doram exp all`` and
    the report below sweep the same points."""
    fields = {}
    run = RunPoint.run

    def memo(point, tracer):
        if tracer is not None:  # a trace cannot be replayed from a memo
            return run(point, tracer)
        if point not in fields:
            fields[point] = run(point, tracer)
        return fields[point]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunPoint, "run", memo)
        yield


@pytest.fixture(scope="module")
def exp_all(simulate_once):
    """``doram exp all`` at li/400: ``(exit status, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["exp", "all", "--benchmarks", "li",
                       "--trace-length", "400"])
    return status, out.getvalue()


@pytest.fixture(scope="module")
def report_text(simulate_once):
    outputs, sweep = experiments.run_figures(
        tuple(experiments.EXPERIMENTS), ("li",), 400)
    return render_report(outputs, sweep, ("li",), 400)


class TestChecksEnforced:
    def test_exp_all_regenerates_and_every_check_holds(self, exp_all):
        status, out = exp_all
        assert status == 0
        for exp in experiments.EXPERIMENTS.values():
            assert exp.title in out
        assert "NOT reproduced" not in out
        assert out.count("REPRODUCED") == sum(
            isinstance(note, experiments.Check)
            for exp in experiments.EXPERIMENTS.values()
            for note in exp.notes
        )


class TestReport:
    def test_contains_every_exhibit(self, report_text):
        for heading in ("Fig. 4", "Table I", "Fig. 8", "Fig. 9",
                        "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13"):
            assert heading in report_text

    def test_contains_paper_reference_numbers(self, report_text):
        assert "90.6" in report_text     # Fig. 4 claim
        assert "0.875" in report_text    # Fig. 9 D-ORAM gmean
        assert "1.02" in report_text     # Fig. 10 k=1 overhead

    def test_emits_shape_verdicts(self, report_text):
        assert report_text.count("REPRODUCED") >= 4

    def test_table1_always_reproduced(self, report_text):
        section = report_text.split("## Table I")[1].split("##")[0]
        assert "REPRODUCED" in section
        assert "NOT reproduced" not in section

    def test_engine_detail_reads_fig8_benchmark(self, report_text):
        assert "## S-App engine detail (D-ORAM, li)" in report_text

    def test_markdown_tables_well_formed(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|") and not line.startswith("|---"):
                assert line.endswith("|")


class TestDeviationLedger:
    def test_experiments_md_carries_the_ledger_verbatim(self):
        """The generated part of EXPERIMENTS.md ends with the deviation
        ledger exactly as ``doram report`` renders it, so the two cannot
        drift apart by an edit to one of them.  Runs no simulation."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(root, "EXPERIMENTS.md")) as fp:
            lines = fp.read().splitlines(keepends=True)
        begin = [line.strip() for line in lines].index(REPORT_BEGIN)
        end = [line.strip() for line in lines].index(REPORT_END)
        assert "".join(lines[begin + 1:end]).endswith(_DEVIATIONS)
