"""CLI: argument parsing and end-to-end command execution."""

import pytest

from repro.cli import build_parser, main


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


class TestExecution:
    def test_schemes_command(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "doram+K" in out
        assert "mu(24.0)" in out

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
        from repro.analysis import sweep as sweep_mod

        def _always(point, with_digest=False):
            raise RuntimeError("injected sweep failure")

        monkeypatch.setattr(sweep_mod, "_simulate_point", _always)
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

    def test_serve_sweep_grid(self, capsys):
        code = main(["serve", "--leaf-level", "12", "--horizon-us", "10",
                     "--sweep-tenants", "1,2", "--sweep-rates", "100000",
                     "--workers", "1", "--store", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenants" in out and "p999_ns" in out
        assert "2 simulated" in out


class TestSweepQueueModes:
    """``doram sweep --queue/--join/--status`` (the distributed drain)."""

    def test_modes_are_mutually_exclusive(self, capsys):
        assert main(["sweep", "--queue", "a", "--status", "b"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_queue_requires_a_store(self, capsys, tmp_path):
        code = main(["sweep", "--figures", "fig9", "--store", "none",
                     "--queue", str(tmp_path / "q")])
        assert code == 2
        assert "needs a result store" in capsys.readouterr().err

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


class TestExploreCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.grid == "smoke"
        assert args.benchmark == "li"
        assert args.budget_frac == 0.2
        assert args.anchors == 3
        assert args.band_frac == 0.08
        assert args.max_rounds == 4
        assert args.seed == 1
        # --store defaults to the shared resumable store, like sweep.
        assert args.store is None
        assert args.queue == ""

    def test_rejects_unknown_grid(self, capsys):
        assert main(["explore", "--grid", "galaxy"]) == 2
        assert "unknown grid preset" in capsys.readouterr().err

    def test_rejects_bad_budget(self, capsys):
        assert main(["explore", "--budget-frac", "0"]) == 2
        assert "--budget-frac" in capsys.readouterr().err

    def test_rejects_unknown_benchmark(self, capsys):
        assert main(["explore", "--benchmark", "zz"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_smoke_explore_writes_reports_and_bench(
        self, capsys, tmp_path
    ):
        import json

        out_json = tmp_path / "surface.json"
        out_md = tmp_path / "surface.md"
        bench = tmp_path / "BENCH_explore.json"
        code = main(["explore", "--grid", "smoke",
                     "--trace-length", "150", "--workers", "1",
                     "--budget-frac", "0.5",
                     "--store", str(tmp_path / "store"),
                     "--out-json", str(out_json),
                     "--out-md", str(out_md),
                     "--bench-out", str(bench), "--label", "citest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "explore: grid=16" in out
        assert "frontier" in out
        assert "model-vs-sim error" in out
        doc = json.loads(out_json.read_text())
        assert doc["simulated"] <= doc["budget"]
        assert "Pareto" in out_md.read_text()
        rows = json.loads(bench.read_text())
        assert rows[0]["workload"] == "explore"
        assert rows[0]["label"] == "citest"
        assert 0.0 < rows[0]["sim_fraction"] <= 0.5
