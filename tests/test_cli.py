"""CLI: argument parsing and end-to-end command execution."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import experiments
from repro.analysis.report import REPORT_BEGIN, REPORT_END
from repro.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CI_SMOKE_CAMPAIGN = os.path.join(
    ROOT, "examples", "campaigns", "ci-smoke.json",
)

#: Every subcommand's option strings.  Flags several subcommands take
#: are declared once (an argparse parent, or one helper per flag); this
#: pins that no flag was added or lost on the way.
OPTION_STRINGS = {
    "run": "--benchmark --faults --trace-length",
    "trace": "--benchmark --categories --chrome --jsonl "
             "--snapshot-interval-ns --trace-length",
    "exp": "--benchmarks --trace-length",
    "sweep": "--benchmarks --figures --join --no-resume --queue --status "
             "--store --timeout --trace-length --verbose --worker-id "
             "--workers",
    "profile": "--trace-length",
    "perf": "--benchmark --by-component --output --sort --top "
            "--trace-length",
    "faults": "--benchmark --dry-run --plan --scheme --seed "
              "--trace-length",
    "serve": "--arrival --control-interval-us --digest --faults "
             "--horizon-us --json --leaf-level --queue-cap --rate --seed "
             "--slo-target-ns --store --sweep-rates --sweep-tenants "
             "--tenants --workers --write-fraction",
    "chaos": "--bench-out --campaign --digest --dry-run --join --label "
             "--out --queue --seed --status --store --timeout --verbose "
             "--worker-id --workers",
    "schemes": "",
    "report": "--benchmarks --output --trace-length",
}

CPUS = os.cpu_count() or 1

#: Every subcommand's parsed defaults for the :data:`PINNED_FLAGS` it
#: takes.  Argparse parents share one ``Action`` per flag, so a
#: per-subcommand default set on a parent would leak into every
#: sibling; this table catches that.
DEFAULTS = {
    "run": {"trace_length": 2500, "benchmark": "libq"},
    "trace": {"trace_length": 2000, "benchmark": "libq"},
    "exp": {"trace_length": 2500, "benchmarks": ""},
    "sweep": {"trace_length": 2500, "store": None, "benchmarks": "",
              "workers": CPUS},
    "profile": {"trace_length": 2500},
    "perf": {"trace_length": 2000, "benchmark": "libq"},
    "faults": {"trace_length": 300, "benchmark": "libq"},
    "serve": {"store": "none", "workers": CPUS},
    "chaos": {"store": "none", "workers": CPUS},
    "schemes": {},
    "report": {"trace_length": 2500, "benchmarks": ""},
}

PINNED_FLAGS = ("--trace-length", "--store", "--benchmark", "--benchmarks",
                "--workers")

#: The required positionals/options that let each subcommand parse.
_REQUIRED = {"run": ["doram"], "trace": ["doram"], "exp": ["fig9"],
             "profile": ["li"], "perf": ["doram"],
             "faults": ["--plan", "plan.json"]}


def parsed_defaults():
    """``{command: {dest: parsed default}}`` for :data:`PINNED_FLAGS`."""
    out = {}
    for command in OPTION_STRINGS:
        args = build_parser().parse_args(
            [command] + _REQUIRED.get(command, [])
        )
        options = {option for action in _subparser(command)._actions
                   for option in action.option_strings}
        dests = [flag[2:].replace("-", "_") for flag in PINNED_FLAGS
                 if flag in options]
        out[command] = {dest: getattr(args, dest) for dest in dests}
    return out


def _subparser(command):
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return sub.choices[command]


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "doram"])
        assert args.scheme == "doram"
        assert args.benchmark == "libq"

    def test_exp_choices(self):
        args = build_parser().parse_args(["exp", "fig9"])
        assert args.experiment == "fig9"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "doram"])
        assert args.scheme == "doram"
        assert args.categories == ""
        assert args.snapshot_interval_ns == 500.0
        assert args.jsonl == "" and args.chrome == ""

    def test_exp_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "fig99"])

    def test_perf_defaults(self):
        args = build_parser().parse_args(["perf", "doram"])
        assert args.scheme == "doram"
        assert args.top == 25
        assert args.sort == "cumulative"
        assert args.output == ""

    def test_perf_rejects_unknown_sort(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "doram", "--sort", "bogus"])

    @pytest.mark.parametrize("argv", [
        "run doram --sched heap",
        "run doram --periodic eager",
        "run doram --dram legacy",
        "run doram --link legacy",
        "serve --sched heap",
        "serve --periodic eager",
        "serve --dram legacy",
        "serve --link legacy",
        "perf doram --dram legacy",
        "perf doram --link legacy",
    ])
    def test_backend_flags_are_gone(self, argv):
        # One simulator path: there is no backend or periodic-mode flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv.split())

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_subcommand_is_pinned(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert set(sub.choices) == set(OPTION_STRINGS)

    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_option_strings_are_pinned(self, command):
        options = {
            option
            for action in _subparser(command)._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert options == set(OPTION_STRINGS[command].split())

    @pytest.mark.parametrize("command, store", [
        ("sweep", None), ("serve", "none"), ("chaos", "none"),
    ])
    def test_sweep_option_defaults(self, command, store):
        args = build_parser().parse_args([command])
        assert args.store == store
        assert args.workers == (os.cpu_count() or 1)

    def test_defaults_are_pinned(self):
        assert parsed_defaults() == DEFAULTS

    def test_defaults_ignore_the_environment(self):
        # A fresh interpreter, so nothing could have been read at import
        # time before the variable was set.
        env = dict(os.environ, DORAM_TRACE_LENGTH="77",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(ROOT, "src"), ROOT]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import json, tests.test_cli as t; "
             "print(json.dumps(t.parsed_defaults()))"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == DEFAULTS


class TestExecution:
    def test_schemes_command(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "doram+K" in out
        assert "mu(24.0)" in out

    def test_reader_gone_exits_141_without_a_traceback(self):
        """``doram ... | head``: when stdout's reader has left, the
        command exits with 128 + SIGPIPE and says nothing on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "schemes"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=ROOT, timeout=120,
                env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_run_command(self, capsys):
        assert main(["run", "doram", "--benchmark", "li",
                     "--trace-length", "400"]) == 0
        out = capsys.readouterr().out
        assert "NS mean execution time" in out
        assert "ch0.0" in out

    def test_exp_table1(self, capsys):
        assert main(["exp", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "0.292" in out  # k=3 normal share

    def test_exp_fig10_tiny(self, capsys):
        assert main(["exp", "fig10", "--benchmarks", "li",
                     "--trace-length", "400"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out
        assert "gmean" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "li", "--trace-length", "400"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "category" in out

    def test_perf_command(self, capsys, tmp_path):
        dump = tmp_path / "run.pstats"
        assert main(["perf", "baseline", "--benchmark", "li",
                     "--trace-length", "300", "--top", "5",
                     "--output", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "cumulative" in out
        assert "engine.py" in out  # Engine.run must be in the top 5
        assert dump.exists()

    def test_trace_command_writes_exports(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        assert main(["trace", "doram", "--trace-length", "300",
                     "--jsonl", str(jsonl), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "digest: " in out
        assert "stat snapshots" in out
        first = json.loads(jsonl.read_text().splitlines()[0])
        assert {"ts", "cat", "name", "track", "ph"} <= set(first)
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_trace_command_rejects_unknown_category(self, capsys):
        assert main(["trace", "doram", "--trace-length", "300",
                     "--categories", "dram,nope"]) == 2
        assert "unknown trace categories" in capsys.readouterr().err


class TestExperimentChecks:
    """``doram exp``, ``sweep`` and ``report`` enforce the registry's
    checks (``tests/analysis/test_report.py`` runs ``exp all`` at
    li/400)."""

    @pytest.fixture
    def table1_only(self, monkeypatch):
        """Shrink the registry to Table I (no simulation); returns a
        switch that appends a check that cannot hold."""
        table1 = experiments.EXPERIMENTS["table1"]
        monkeypatch.setattr(experiments, "EXPERIMENTS", {"table1": table1})

        def force_failure():
            forced = dataclasses.replace(table1, notes=table1.notes + (
                experiments.Check("forced false", lambda _rows: False),
            ))
            monkeypatch.setitem(experiments.EXPERIMENTS, "table1", forced)
        return force_failure

    @pytest.mark.parametrize("argv", [["exp", "table1"], ["exp", "all"],
                                      ["report"],
                                      ["sweep", "--figures", "table1",
                                       "--workers", "1", "--store", "none"]],
                             ids=["exp-table1", "exp-all", "report", "sweep"])
    def test_a_failed_check_exits_1(self, argv, table1_only, capsys):
        assert main(argv) == 0
        assert "NOT reproduced" not in capsys.readouterr().out
        table1_only()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Shape (forced false): NOT reproduced" in captured.out
        assert "check failed: Shape (forced false)" in captured.err

    def test_report_output_rewrites_only_the_marked_part(self, table1_only,
                                                         tmp_path):
        """EXPERIMENTS.md keeps hand-written sections around the report."""
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(f"# kept above\n{REPORT_BEGIN}\nstale report\n"
                        f"{REPORT_END}\n## kept below\ntext\n")
        assert main(["report", "--output", str(path)]) == 0
        text = path.read_text()
        assert text.startswith(f"# kept above\n{REPORT_BEGIN}\n"
                               "# EXPERIMENTS")
        assert text.endswith(f"{REPORT_END}\n## kept below\ntext\n")
        assert "stale report" not in text
        assert "## Table I" in text
        # Regenerating again changes nothing.
        assert main(["report", "--output", str(path)]) == 0
        assert path.read_text() == text

    def test_report_output_without_marks_exits_2_untouched(self, table1_only,
                                                           tmp_path, capsys):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("# hand-written only\n")
        assert main(["report", "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("doram: error: --output")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert path.read_text() == "# hand-written only\n"

    def test_report_output_to_a_new_file_is_marked(self, table1_only,
                                                   tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", "--output", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_BEGIN and lines[-1] == REPORT_END
        assert "# EXPERIMENTS — paper vs. measured" in lines


class TestValidation:
    """Every subcommand fails fast (exit 2, one-line stderr) on bad args."""

    def test_run_rejects_unknown_scheme(self, capsys):
        assert main(["run", "no-such-scheme"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("doram: error:")
        assert "unknown scheme" in err
        assert err.count("\n") == 1

    def test_run_rejects_unknown_benchmark(self, capsys):
        assert main(["run", "doram", "--benchmark", "zz"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_rejects_bad_trace_length(self, capsys):
        assert main(["run", "doram", "--trace-length", "0"]) == 2
        assert "--trace-length" in capsys.readouterr().err

    def test_run_rejects_out_of_range_c_limit(self, capsys):
        """doram/C validation happens before any simulation starts."""
        assert main(["run", "doram/99"]) == 2
        assert "c_limit" in capsys.readouterr().err

    def test_exp_rejects_unknown_benchmark_code(self, capsys):
        assert main(["exp", "fig9", "--benchmarks", "li,zz"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_sweep_rejects_unknown_figures(self, capsys):
        assert main(["sweep", "--figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--figures", "fig9"],
        ["chaos", "--campaign", CI_SMOKE_CAMPAIGN],
        ["serve"],
    ])
    def test_workers_below_one_are_refused(self, argv, capsys):
        assert main(argv + ["--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1" in err
        assert err.count("\n") == 1

    def test_sweep_rejects_negative_timeout(self, capsys):
        assert main(["sweep", "--figures", "fig9", "--timeout", "-1"]) == 2
        assert "--timeout" in capsys.readouterr().err

    def test_report_rejects_unknown_benchmark(self, capsys):
        assert main(["report", "--benchmarks", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_faults_rejects_missing_plan_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["faults", "--plan", missing]) == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_faults_rejects_malformed_plan(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"link": [{"kind": "melt"}]}')
        assert main(["faults", "--plan", str(bad)]) == 2
        assert "unknown link fault kind" in capsys.readouterr().err


class TestFaultsCommand:
    def _plan_file(self, tmp_path, doc):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_dry_run_prints_resolved_schedule(self, capsys, tmp_path):
        plan = self._plan_file(tmp_path, {
            "seed": 5,
            "link": [{"kind": "drop", "link": "bob0.up", "tag": "raw",
                      "packets": [3]}],
        })
        assert main(["faults", "--plan", plan, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "seed 5" in out
        assert "bob0.up" in out
        assert "recovery:" in out
        assert "simulated" not in out  # dry run must not simulate

    def test_full_run_reports_invariants_ok(self, capsys, tmp_path):
        plan = self._plan_file(tmp_path, {
            "link": [{"kind": "corrupt", "link": "bob0.down",
                      "tag": "raw", "packets": [3]}],
        })
        assert main(["faults", "--plan", plan]) == 0
        out = capsys.readouterr().out
        assert "[OK]" in out
        assert "link_corrupts=1" in out

    def test_run_with_armed_plan_prints_fault_summary(
        self, capsys, tmp_path
    ):
        plan = self._plan_file(tmp_path, {
            "link": [{"kind": "drop", "link": "bob0.up", "tag": "raw",
                      "packets": [3]}],
        })
        assert main(["run", "doram", "--trace-length", "300",
                     "--faults", plan]) == 0
        out = capsys.readouterr().out
        assert "link_drops=1" in out
        assert "sdlink0" in out

    def test_faults_seed_override(self, capsys, tmp_path):
        plan = self._plan_file(tmp_path, {"seed": 1})
        assert main(["faults", "--plan", plan, "--seed", "42",
                     "--dry-run"]) == 0
        assert "seed 42" in capsys.readouterr().out


class TestSweepFailureSurfacing:
    def test_failed_points_exit_nonzero_with_reasons(
        self, capsys, monkeypatch
    ):
        from repro.analysis.sweep import RunPoint

        def _always(point, tracer):
            raise RuntimeError("injected sweep failure")

        monkeypatch.setattr(RunPoint, "run", _always)
        code = main(["sweep", "--figures", "fig9", "--benchmarks", "li",
                     "--trace-length", "100", "--workers", "1",
                     "--store", "none"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED after retry" in captured.err
        assert "injected sweep failure" in captured.err
        assert "retried=" in captured.out


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenants == 8
        assert args.arrival == "poisson"
        assert args.rate == 200_000.0
        assert args.horizon_us == 100.0
        assert args.queue_cap == 64
        assert args.leaf_level == 23
        assert args.slo_target_ns == 0.0
        assert args.store == "none"
        assert not args.digest

    def test_parser_rejects_unknown_sched(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--sched", "bogus"])

    def test_serve_smoke_report(self, capsys):
        code = main(["serve", "--tenants", "2", "--leaf-level", "12",
                     "--horizon-us", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate:" in out
        assert "p999" in out
        assert "report digest" in out

    def test_serve_digest_and_json(self, capsys, tmp_path):
        report = tmp_path / "slo.json"
        code = main(["serve", "--tenants", "2", "--leaf-level", "12",
                     "--horizon-us", "10",
                     "--digest", "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace digest:" in out
        import json

        doc = json.loads(report.read_text())
        assert len(doc["tenants"]) == 2
        assert all("latency_ns" in row for row in doc["tenants"].values())

    def test_serve_rejects_unknown_arrival(self, capsys):
        code = main(["serve", "--arrival", "constant"])
        assert code == 2
        assert "unknown arrival kind" in capsys.readouterr().err

    def test_serve_rejects_bad_config(self, capsys):
        code = main(["serve", "--tenants", "0", "--leaf-level", "12"])
        assert code == 2
        assert "num_tenants" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--sweep-tenants", "x"], "--sweep-tenants takes"),
        (["--sweep-rates", "1e5,abc"], "--sweep-rates takes"),
        (["--sweep-tenants", "0"], "num_tenants"),
    ])
    def test_serve_sweep_lists_fail_fast(self, flags, message, capsys):
        code = main(["serve", "--leaf-level", "12", "--workers", "1",
                     "--store", "none"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("doram: error:") and message in err
        assert err.count("\n") == 1

    def test_serve_sweep_grid(self, capsys):
        code = main(["serve", "--leaf-level", "12", "--horizon-us", "10",
                     "--sweep-tenants", "1,2", "--sweep-rates", "100000",
                     "--workers", "1", "--store", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenants" in out and "p999_ns" in out
        assert "2 simulated" in out


#: A queue-declaring drain of each subcommand that speaks the queue.
QUEUE_DRAINS = [
    ["sweep", "--figures", "fig10", "--benchmarks", "li",
     "--trace-length", "150"],
    ["chaos", "--campaign", CI_SMOKE_CAMPAIGN],
]


class TestSweepQueueModes:
    """``--queue/--join/--status``, the distributed drain, of ``doram
    sweep`` (and of ``doram chaos`` for the manifest clash)."""

    def test_modes_are_mutually_exclusive(self, capsys):
        assert main(["sweep", "--queue", "a", "--status", "b"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_no_resume_with_queue_is_refused(self, capsys, tmp_path):
        """A queue's workers resume from its shared store, so
        --no-resume cannot be honoured there."""
        code = main(["sweep", "--figures", "fig10", "--benchmarks", "li",
                     "--trace-length", "100", "--workers", "1",
                     "--queue", str(tmp_path / "q"),
                     "--store", str(tmp_path / "s"), "--no-resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--no-resume" in err and err.count("\n") == 1
        assert not (tmp_path / "q").exists()

    def test_queue_requires_a_store(self, capsys, tmp_path):
        code = main(["sweep", "--figures", "fig9", "--store", "none",
                     "--queue", str(tmp_path / "q")])
        assert code == 2
        assert "needs a result store" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", QUEUE_DRAINS, ids=["sweep", "chaos"])
    def test_queue_manifest_clash_exits_2(self, argv, capsys, tmp_path):
        """A queue directory that declares another sweep is refused
        with one line, before any point is simulated."""
        from repro.analysis.sweep import ResultStore, RunPoint
        from repro.analysis.workqueue import WorkQueue

        queue = str(tmp_path / "q")
        store = str(tmp_path / "store")
        WorkQueue.create(queue, [RunPoint("baseline", "li", 150)])
        code = main(argv + ["--workers", "1", "--queue", queue,
                            "--store", store])
        assert code == 2
        err = capsys.readouterr().err
        assert "already declares a different sweep" in err
        assert err.count("\n") == 1
        assert len(ResultStore(store)) == 0

    @pytest.mark.parametrize("argv", QUEUE_DRAINS, ids=["sweep", "chaos"])
    def test_torn_queue_manifest_exits_2(self, argv, capsys, tmp_path):
        """A torn manifest is refused with one line, as ``--join``
        refuses it, before any point is simulated."""
        from repro.analysis.sweep import ResultStore

        queue = tmp_path / "q"
        queue.mkdir()
        (queue / "manifest.json").write_text('{"schema": 2, "poi')
        store = str(tmp_path / "store")
        code = main(argv + ["--workers", "1", "--queue", str(queue),
                            "--store", store])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt sweep manifest" in err
        assert err.count("\n") == 1
        assert len(ResultStore(store)) == 0

    def test_status_on_missing_queue_fails_fast(self, capsys, tmp_path):
        assert main(["sweep", "--status", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("doram: error:")

    def test_queue_drain_then_status_then_late_join(
        self, capsys, tmp_path
    ):
        queue = str(tmp_path / "queue")
        store = str(tmp_path / "store")
        code = main(["sweep", "--figures", "fig10", "--benchmarks", "li",
                     "--trace-length", "120", "--workers", "2",
                     "--queue", queue, "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out  # drivers evaluated from store hits

        assert main(["sweep", "--status", queue]) == 0
        status = capsys.readouterr().out
        assert "4 done" in status and "0 pending" in status

        # A worker joining after the drain finds nothing left to do.
        assert main(["sweep", "--join", queue,
                     "--worker-id", "late"]) == 0
        joined = capsys.readouterr().out
        assert "worker late: 0 completed" in joined
