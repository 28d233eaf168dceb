"""Command-line interface: ``python -m repro.cli`` or the ``doram`` script.

Subcommands
-----------
``run SCHEME``       simulate one configuration and print its summary
``trace SCHEME``     run with event tracing on; write JSONL and/or Chrome
                     ``trace_event`` JSON (open in https://ui.perfetto.dev)
``exp EXPERIMENT``   regenerate a paper table/figure (fig4, table1, fig8,
                     fig9, fig10, fig11, fig12, fig13, or ``all``)
``profile BENCH``    print the T25mix/T33 profiling decision for a benchmark
``perf SCHEME``      cProfile one scheme run and print the hottest functions
``faults``           arm a fault plan and run the invariant harness
``serve``            run the multi-tenant open-loop service scenario and
                     print its per-tenant SLO report (or sweep a grid)
``explore``          analytical triage + selective simulation of a
                     configuration grid: recover the latency/goodput
                     Pareto surface while simulating only the model's
                     predicted frontier band
``chaos``            drain a seeded fault campaign (fault intensity x
                     scheme x workload) under the invariant harness and
                     score availability / goodput-under-faults;
                     ``chaos report`` re-renders a drained store
``schemes``          list the recognized scheme names

``sweep`` and ``chaos`` additionally speak the distributed work-queue
protocol: ``--queue DIR`` declares the sweep and drains it with N local
worker processes, ``--join DIR --worker-id ID`` attaches one extra
worker (on this or any host sharing the filesystem), and ``--status
DIR`` prints drain progress (done/leased/pending/failed, per-worker
throughput).

Every subcommand validates its scheme/benchmark/plan arguments *before*
simulating and exits with status 2 and a one-line actionable error on
stderr -- a typo should fail in milliseconds, not after a sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import experiments
from repro.analysis.profiling import profile_ratio
from repro.core.schemes import SCHEMES, make_config, run_scheme
from repro.trace.benchmarks import BENCHMARKS, benchmark_by_code


def _fail(message: str) -> int:
    """One-line actionable error on stderr, exit status 2."""
    print(f"doram: error: {message}", file=sys.stderr)
    return 2


def _validate_point(
    scheme: Optional[str],
    benchmark: Optional[str],
    trace_length: Optional[int],
) -> Optional[str]:
    """Resolve the full config up front; an error string, or ``None``.

    ``make_config`` runs every :class:`SystemConfig` consistency check
    (scheme grammar, k-split vs placement, c-limit range, ...), so a bad
    ``doram+9/99`` fails here instead of mid-build.
    """
    if trace_length is not None and trace_length <= 0:
        return f"--trace-length must be positive (got {trace_length})"
    if benchmark is not None:
        try:
            benchmark_by_code(benchmark)
        except KeyError as exc:
            return str(exc.args[0])
    if scheme is not None:
        try:
            make_config(
                scheme, benchmark or "libq",
                trace_length or experiments.DEFAULT_TRACE_LENGTH,
            )
        except ValueError as exc:
            return str(exc)
    return None


def _parse_benchmarks(
    arg: str,
) -> Tuple[Optional[List[str]], Optional[str]]:
    """``--benchmarks`` flag -> (codes or None, error string or None)."""
    if not arg:
        return None, None
    codes = [code.strip() for code in arg.split(",") if code.strip()]
    if not codes:
        return None, "--benchmarks lists no benchmark codes"
    for code in codes:
        try:
            benchmark_by_code(code)
        except KeyError as exc:
            return None, str(exc.args[0])
    return codes, None


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    def fmt(row: Sequence[object]) -> str:
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _print_keyed(title: str, data: Dict[str, Dict[str, object]]) -> None:
    print(f"\n== {title} ==")
    first = next(iter(data.values()))
    headers = ["bench"] + list(first.keys())
    rows = []
    for key, row in data.items():
        rows.append([key] + [
            f"{v:.3f}" if isinstance(v, float) else str(v)
            for v in row.values()
        ])
    print(_format_table(headers, rows))


def cmd_run(args: argparse.Namespace) -> int:
    error = _validate_point(args.scheme, args.benchmark, args.trace_length)
    if error:
        return _fail(error)
    faults = None
    if args.faults:
        from repro.faults import FaultController, FaultPlan, FaultPlanError

        try:
            plan = FaultPlan.from_file(args.faults)
        except FaultPlanError as exc:
            return _fail(str(exc))
        faults = FaultController(plan)
    result = run_scheme(args.scheme, args.benchmark, args.trace_length,
                        faults=faults)
    print(f"scheme={args.scheme} benchmark={args.benchmark} "
          f"trace={args.trace_length}")
    print(f"  NS mean execution time : {result.ns_mean_ns():,.0f} ns")
    print(f"  NS read latency        : {result.read_latency_ns():.1f} ns")
    print(f"  NS write latency       : {result.write_latency_ns():.1f} ns")
    for key, value in sorted(result.s_app.items()):
        print(f"  s_app.{key:<22}: {value:,.2f}")
    print("  channels:")
    for name, row in result.channels.items():
        print(f"    {name:<7} util={row['utilization']:.2f} "
              f"rowhit={row['row_hit_rate']:.2f} "
              f"reads={int(row['reads'])} writes={int(row['writes'])}")
    elided = result.events - result.raw_events
    print(f"  simulated {result.end_time / 16 / 1000:.1f} us, "
          f"{result.events:,} events "
          f"({result.raw_events:,} dispatched, {elided:,} synthesized)")
    if result.fault_summary:
        for section, counters in sorted(result.fault_summary.items()):
            if counters:
                print(f"  {section}: " + ", ".join(
                    f"{key}={value:g}"
                    for key, value in sorted(counters.items())
                ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        ALL_CATEGORIES,
        Tracer,
        trace_digest,
        write_chrome_trace,
        write_jsonl,
    )

    error = _validate_point(args.scheme, args.benchmark, args.trace_length)
    if error:
        return _fail(error)
    if args.categories:
        categories = frozenset(args.categories.split(","))
        unknown = categories - ALL_CATEGORIES
        if unknown:
            return _fail(
                f"unknown trace categories: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(ALL_CATEGORIES))})"
            )
    else:
        categories = None  # DEFAULT_CATEGORIES
    tracer = Tracer(categories=categories)
    interval = args.snapshot_interval_ns if args.snapshot_interval_ns > 0 \
        else None
    result = run_scheme(args.scheme, args.benchmark, args.trace_length,
                        tracer=tracer, snapshot_interval_ns=interval)
    print(f"scheme={args.scheme} benchmark={args.benchmark} "
          f"trace={args.trace_length}")
    print(f"  simulated {result.end_time / 16 / 1000:.1f} us, "
          f"{result.events:,} engine events, "
          f"{len(tracer)} trace events, "
          f"{len(result.snapshots)} stat snapshots")
    print(f"  digest: {trace_digest(tracer.events)}")
    if args.jsonl:
        write_jsonl(tracer.events, args.jsonl)
        print(f"  wrote {args.jsonl}")
    if args.chrome:
        write_chrome_trace(tracer.events, args.chrome,
                           process_name=f"doram {args.scheme}")
        print(f"  wrote {args.chrome} (load in https://ui.perfetto.dev)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    error = _validate_point(None, args.benchmark, args.trace_length)
    if error:
        return _fail(error)
    profile = profile_ratio(args.benchmark, trace_length=args.trace_length)
    print(f"benchmark={args.benchmark}")
    print(f"  solo latency   : {profile.latency_solo_ns:.1f} ns")
    print(f"  T25            : {profile.t25:.2f}")
    print(f"  T25mix         : {profile.t25mix:.2f}")
    print(f"  T33            : {profile.t33:.2f}")
    print(f"  ratio          : {profile.ratio:.3f}")
    print(f"  category       : {profile.decision.category} "
          f"(suggest c={profile.decision.suggested_c})")
    return 0


def _component_rollup(stats, top: int) -> List[Tuple[str, float, int]]:
    """Group a pstats table by ``repro.*`` module.

    Sums per-function *self* time (tottime) per module -- unlike
    summing cumulative time, self time adds up without double-counting
    intra-module calls, so the rows attribute the profile's total to
    components.  Non-repro frames (stdlib, builtins) collapse into an
    ``<other>`` row.  Returns ``(module, self_seconds, calls)`` rows,
    largest first, truncated to ``top``.
    """
    per_module: Dict[str, List[float]] = {}
    for (filename, _lineno, _funcname), row in stats.stats.items():
        _cc, ncalls, tottime, _ct = row[0], row[1], row[2], row[3]
        module = "<other>"
        marker = os.sep + "repro" + os.sep
        index = filename.find(marker)
        if index >= 0:
            module = (
                filename[index + 1:]
                .rsplit(".py", 1)[0]
                .replace(os.sep, ".")
            )
        bucket = per_module.setdefault(module, [0.0, 0])
        bucket[0] += tottime
        bucket[1] += ncalls
    rows = sorted(
        ((mod, t, int(n)) for mod, (t, n) in per_module.items()),
        key=lambda r: r[1], reverse=True,
    )
    return rows[:top]


def cmd_perf(args: argparse.Namespace) -> int:
    """Profile one scheme run under cProfile.

    A developer convenience for the hot-path work tracked in
    ``BENCH_sim.json``: runs the same simulation as ``doram run`` with
    the profiler attached and prints the top functions.  Note cProfile's
    per-call overhead inflates small, frequently-called functions
    relative to the sampling profile -- treat the ranking as a map, not
    a measurement (see DESIGN.md, "Performance engineering").
    """
    import cProfile
    import pstats

    error = _validate_point(args.scheme, args.benchmark, args.trace_length)
    if error:
        return _fail(error)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_scheme(args.scheme, args.benchmark, args.trace_length)
    profiler.disable()
    print(f"scheme={args.scheme} benchmark={args.benchmark} "
          f"trace={args.trace_length}: "
          f"{result.events:,} events ({result.raw_events:,} dispatched)")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.by_component:
        rows = _component_rollup(stats, args.top)
        total = sum(r[1] for r in rows) or 1.0
        print("\nper-component rollup (self time per repro.* module):")
        print(f"  {'module':<32} {'self_s':>9} {'share':>6} {'calls':>12}")
        for module, seconds, calls in rows:
            print(f"  {module:<32} {seconds:>9.3f} "
                  f"{seconds / total:>6.1%} {calls:>12,}")
    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote {args.output} (load with pstats or snakeviz)")
    return 0


_EXPERIMENTS = (
    "fig4", "table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
)

_EXPERIMENT_TITLES = {
    "fig4": "Fig. 4: NS slowdown vs solo (per scheme)",
    "fig9": "Fig. 9: normalized NS execution time",
    "fig10": "Fig. 10: D-ORAM+k vs D-ORAM",
    "fig11": "Fig. 11: secure-channel sharing sweep",
    "fig12": "Fig. 12: profiled ratio vs best c",
    "fig13": "Fig. 13: NS access latency vs Baseline",
}


def _print_experiment(name: str, output) -> None:
    """Render one driver's output (shared by ``exp`` and ``sweep``)."""
    if name == "table1":
        headers = list(output[0].keys())
        print("\n== Table I: tree-split space/messages ==")
        print(_format_table(
            headers,
            [[f"{v:.3f}" if isinstance(v, float) else str(v)
              for v in r.values()] for r in output],
        ))
    elif name == "fig8":
        print("\n== Fig. 8: channel access latency (ns) ==")
        for key, value in output.items():
            print(f"  {key:<26}: {value:.1f}")
    else:
        _print_keyed(_EXPERIMENT_TITLES[name], output)


def cmd_exp(args: argparse.Namespace) -> int:
    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    benchmarks, error = _parse_benchmarks(args.benchmarks)
    error = error or _validate_point(None, None, args.trace_length)
    if error:
        return _fail(error)
    length = args.trace_length
    for name in names:
        output = experiments.FIGURE_DRIVERS[name](benchmarks, length)
        _print_experiment(name, output)
    return 0


def _print_sweep_summary(sweep, store) -> None:
    retried = f" retried={sweep.retried}" if sweep.retried else ""
    print(f"sweep: {sweep.total} points "
          f"({sweep.simulated} simulated, {sweep.store_hits} from store) "
          f"workers={sweep.workers} wall={sweep.wall_s:.2f}s "
          f"({sweep.points_per_s:.2f} points/s){retried}")
    if store is not None:
        print(f"store: {store.root} ({len(store)} entries)")


def _cmd_sweep_status(queue_dir: str) -> int:
    """``doram sweep --status DIR``: drain-progress readout."""
    from repro.analysis.workqueue import WorkQueue, WorkQueueError

    try:
        queue = WorkQueue.join(queue_dir)
    except WorkQueueError as exc:
        return _fail(str(exc))
    print(f"queue: {queue_dir} (store {queue.store.root})")
    for line in queue.stats().describe():
        print(f"  {line}")
    return 0


def _cmd_sweep_join(queue_dir: str, worker_id: str, verbose: bool) -> int:
    """``doram sweep --join DIR``: attach one worker to a shared drain."""
    from repro.analysis.workqueue import (
        WorkQueue,
        WorkQueueError,
        default_owner,
    )

    try:
        queue = WorkQueue.join(queue_dir)
    except WorkQueueError as exc:
        return _fail(str(exc))
    owner = worker_id or default_owner()
    progress = (lambda msg: print(f"  {msg}", flush=True)) if verbose \
        else None
    drain = queue.drain(owner=owner, progress=progress)
    print(f"worker {owner}: {drain.completed} completed, "
          f"{drain.skipped} skipped, {drain.reclaimed} reclaimed, "
          f"{len(drain.failed)} failed in {drain.wall_s:.2f}s")
    return 1 if drain.failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Parallel, resumable regeneration of one or more figures."""
    from repro.analysis.sweep import (
        ResultStore,
        SweepFailure,
        default_workers,
    )

    modes = [bool(args.queue), bool(args.join), bool(args.status)]
    if sum(modes) > 1:
        return _fail("--queue, --join and --status are mutually exclusive")
    if args.status:
        return _cmd_sweep_status(args.status)
    if args.join:
        return _cmd_sweep_join(args.join, args.worker_id, args.verbose)

    if args.figures == "all":
        names = _EXPERIMENTS
    else:
        names = tuple(name.strip() for name in args.figures.split(","))
        unknown = set(names) - set(_EXPERIMENTS)
        if unknown:
            return _fail(
                f"unknown figures: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(_EXPERIMENTS)})"
            )
    benchmarks, error = _parse_benchmarks(args.benchmarks)
    error = error or _validate_point(None, None, args.trace_length)
    if error is None and args.timeout < 0:
        error = f"--timeout must be >= 0 (got {args.timeout:g})"
    if error:
        return _fail(error)
    workers = args.workers if args.workers else default_workers()
    store = ResultStore(args.store) if args.store != "none" else None
    progress = (lambda msg: print(f"  {msg}", flush=True)) \
        if args.verbose else None

    if args.queue:
        if store is None:
            return _fail("--queue needs a result store "
                         "(drop --store none)")
        from repro.analysis.workqueue import run_queue_sweep

        points: List = []
        for name in names:
            points.extend(
                experiments.figure_points(name, benchmarks,
                                          args.trace_length)
            )
        sweep, _queue = run_queue_sweep(
            points, args.queue, workers=workers,
            store_root=os.path.abspath(store.root),
            timeout_s=args.timeout or None, progress=progress,
        )
        _print_sweep_summary(sweep, store)
        if sweep.failed:
            print(f"sweep: {len(sweep.failed)} point(s) FAILED after "
                  f"retry:", file=sys.stderr)
            for point, reason in sweep.failed.items():
                print(f"  {point.label}: {reason}", file=sys.stderr)
            return 1
        # The drain filled the store; the drivers now evaluate against
        # pure store hits.
        outputs, _ = experiments.run_figures(
            names, benchmarks, args.trace_length,
            workers=1, store=store, resume=True,
        )
        for name in names:
            _print_experiment(name, outputs[name])
        return 0

    try:
        outputs, sweep = experiments.run_figures(
            names, benchmarks, args.trace_length,
            workers=workers, store=store, resume=not args.no_resume,
            progress=progress, timeout_s=args.timeout or None,
        )
    except SweepFailure as failure:
        sweep = failure.sweep_result
        _print_sweep_summary(sweep, store)
        print(f"sweep: {len(sweep.failed)} point(s) FAILED after retry:",
              file=sys.stderr)
        for point, reason in sweep.failed.items():
            print(f"  {point.label}: {reason}", file=sys.stderr)
        return 1
    _print_sweep_summary(sweep, store)
    for name in names:
        _print_experiment(name, outputs[name])
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Arm a fault plan and audit the end-to-end invariants."""
    from repro.faults import FaultPlan, FaultPlanError

    try:
        plan = FaultPlan.from_file(args.plan)
    except FaultPlanError as exc:
        return _fail(str(exc))
    if args.seed is not None:
        plan = plan.reseeded(args.seed)
    error = _validate_point(args.scheme, args.benchmark, args.trace_length)
    if error:
        return _fail(error)

    print(f"plan {args.plan}:")
    for line in plan.describe():
        print(f"  {line}")
    if args.dry_run:
        return 0

    from repro.faults.invariants import check_fault_invariants

    report = check_fault_invariants(
        plan, scheme=args.scheme, benchmark=args.benchmark,
        trace_length=args.trace_length,
    )
    print(report.describe())
    return 0 if report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    benchmarks, error = _parse_benchmarks(args.benchmarks)
    error = error or _validate_point(None, None, args.trace_length)
    if error:
        return _fail(error)
    text = generate_report(benchmarks, args.trace_length)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant open-loop service scenario (or a sweep)."""
    import json as _json

    from repro.scenarios import (
        ARRIVAL_KINDS,
        ScenarioConfig,
        apply_overrides,
        format_report,
        run_scenario,
        run_slo_sweep,
        scenario_grid,
        slo_rows,
    )

    if args.arrival not in ARRIVAL_KINDS:
        return _fail(
            f"unknown arrival kind {args.arrival!r} "
            f"(known: {', '.join(ARRIVAL_KINDS)})"
        )
    overrides: Dict[str, object] = {
        "num_tenants": args.tenants,
        "arrival.kind": args.arrival,
        "arrival.rate_rps": args.rate,
        "horizon_ns": args.horizon_us * 1000.0,
        "queue_cap": args.queue_cap,
        "write_fraction": args.write_fraction,
        "slo_target_ns": args.slo_target_ns,
        "control_interval_ns": args.control_interval_us * 1000.0,
        "oram.leaf_level": args.leaf_level,
        "seed": args.seed,
    }
    try:
        config = apply_overrides(ScenarioConfig(), overrides)
    except (TypeError, ValueError) as exc:
        return _fail(str(exc))

    faults = None
    if args.faults:
        from repro.faults import FaultController, FaultPlan, FaultPlanError

        if args.sweep_tenants or args.sweep_rates:
            return _fail(
                "--faults applies to a single scenario run; use 'doram "
                "chaos' for fault sweeps"
            )
        try:
            plan = FaultPlan.from_file(args.faults)
        except FaultPlanError as exc:
            return _fail(str(exc))
        faults = FaultController(plan)

    if args.sweep_tenants or args.sweep_rates:
        from repro.analysis.sweep import ResultStore, default_workers

        tenants = [int(v) for v in args.sweep_tenants.split(",") if v] \
            or [args.tenants]
        rates = [float(v) for v in args.sweep_rates.split(",") if v] \
            or [args.rate]
        base = {k: v for k, v in overrides.items()
                if k not in ("num_tenants", "arrival.rate_rps")}
        points = scenario_grid(tenants, rates, base)
        store = ResultStore(args.store) if args.store != "none" else None
        workers = args.workers if args.workers else default_workers()
        sweep = run_slo_sweep(points, workers=workers, store=store)
        _print_sweep_summary(sweep, store)
        rows = slo_rows(sweep)
        print(_format_table(
            ["tenants", "rate_rps", "offered", "completed", "goodput",
             "p50_ns", "p99_ns", "p999_ns"],
            [[r["tenants"], f"{r['rate_rps']:g}", r["offered"],
              r["completed"], f"{r['goodput_rps']:,.0f}",
              f"{r['worst_p50_ns']:,.0f}", f"{r['worst_p99_ns']:,.0f}",
              f"{r['worst_p999_ns']:,.0f}"] for r in rows],
        ))
        return 0

    tracer = None
    if args.digest:
        from repro.obs import Tracer

        tracer = Tracer()
    result = run_scenario(config, tracer=tracer, faults=faults)
    print(format_report(result))
    if faults is not None:
        fired = result.fault_summary.get("faults", {})
        line = " ".join(f"{k}={v}" for k, v in sorted(fired.items()))
        print(f"faults: {line or 'none fired'}")
    if tracer is not None:
        from repro.obs import trace_digest

        print(f"trace digest: {trace_digest(tracer.events)}")
    if args.json:
        with open(args.json, "w") as fp:
            _json.dump(result.to_json_dict(), fp, sort_keys=True, indent=1)
        print(f"wrote {args.json}")
    return 0


def _chaos_bench_append(rows, label: str, wall_s: float,
                        path: str) -> None:
    from repro.faults.campaign import bench_records

    _tools = os.path.join(
        os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "tools",
    )
    if _tools not in sys.path:
        sys.path.insert(0, _tools)
    import bench_trajectory

    for record in bench_records(rows, label, wall_s):
        bench_trajectory.append(record, path=path)
    print(f"appended {len(rows)} records to {path}")


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault campaigns: drain, gate invariants, score, report."""
    import dataclasses

    from repro.faults.campaign import (
        CampaignError,
        CampaignSpec,
        chaos_rows,
        render_markdown,
    )

    modes = [bool(args.queue), bool(args.join), bool(args.status)]
    if sum(modes) > 1:
        return _fail("--queue, --join and --status are mutually exclusive")
    if args.status:
        return _cmd_sweep_status(args.status)
    if args.join:
        return _cmd_sweep_join(args.join, args.worker_id, args.verbose)

    if not args.campaign:
        return _fail("chaos needs --campaign SPEC.json "
                     "(see examples/campaigns/)")
    try:
        spec = CampaignSpec.from_file(args.campaign)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    except CampaignError as exc:
        return _fail(str(exc))
    if args.timeout < 0:
        return _fail(f"--timeout must be >= 0 (got {args.timeout:g})")

    if args.dry_run:
        print("\n".join(spec.describe()))
        return 0

    from repro.analysis.sweep import ResultStore, default_workers

    points = spec.grid()
    store = ResultStore(args.store) if args.store != "none" else None
    workers = args.workers if args.workers else default_workers()
    progress = (lambda msg: print(f"  {msg}", flush=True)) \
        if args.verbose else None

    if args.mode == "report":
        if store is None:
            return _fail("chaos report reads a drained store; pass "
                         "--store DIR")
        payloads = {}
        missing = []
        for point in points:
            cached = store.get(point.key(args.digest))
            if cached is None:
                missing.append(point.label)
            else:
                payloads[point] = cached
        if missing:
            return _fail(
                f"store {store.root} is missing {len(missing)} of "
                f"{len(points)} campaign cells (first: {missing[0]}); "
                f"drain with 'doram chaos --campaign ...' first"
            )
        sweep = None
        wall_s = 0.0
    else:
        if args.queue:
            if store is None:
                return _fail("--queue needs a result store "
                             "(drop --store none)")
            from repro.analysis.workqueue import run_queue_sweep

            sweep, _queue = run_queue_sweep(
                points, args.queue, workers=workers,
                store_root=os.path.abspath(store.root),
                with_digest=args.digest,
                timeout_s=args.timeout or None, progress=progress,
            )
        else:
            from repro.analysis.sweep import run_sweep

            sweep = run_sweep(
                points, workers=workers, store=store,
                with_digest=args.digest,
                timeout_s=args.timeout or None, progress=progress,
            )
        _print_sweep_summary(sweep, store)
        if sweep.failed:
            for point, error in sweep.failed.items():
                print(f"FAILED {point.label}: {error}", file=sys.stderr)
            return 1
        payloads = sweep.payloads
        wall_s = sweep.wall_s

    rows = chaos_rows(payloads)
    print(render_markdown(rows))

    # The invariant harness is the oracle: any violated cell fails the
    # whole campaign (after the table, so the curve is still visible).
    violated = [
        point for point in sorted(payloads, key=lambda p: p.label)
        if not payloads[point]["invariants"]["ok"]
    ]
    for point in violated:
        for violation in payloads[point]["invariants"]["violations"]:
            print(f"INVARIANT {point.label}: {violation}",
                  file=sys.stderr)

    if args.out:
        with open(args.out, "w") as fp:
            fp.write(f"# chaos campaign {spec.name!r} "
                     f"(seed {spec.seed}, slo {spec.slo_ns:g} ns)\n\n")
            fp.write(render_markdown(rows))
            fp.write("\n")
        print(f"wrote {args.out}")
    if args.bench_out:
        _chaos_bench_append(rows, args.label, wall_s, args.bench_out)
    return 1 if violated else 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Analytical triage + selective simulation (the Pareto surface)."""
    import time as _time

    from repro.analysis.explore import (
        GRID_PRESETS,
        bench_record,
        build_grid,
        explore,
        write_report,
    )
    from repro.analysis.sweep import ResultStore, default_workers

    if args.grid not in GRID_PRESETS:
        return _fail(f"unknown grid preset {args.grid!r} "
                     f"(known: {', '.join(GRID_PRESETS)})")
    error = _validate_point(None, args.benchmark, args.trace_length)
    if error is None and not 0.0 < args.budget_frac <= 1.0:
        error = f"--budget-frac must be in (0, 1] (got {args.budget_frac:g})"
    if error:
        return _fail(error)
    points = build_grid(args.grid, args.trace_length, args.benchmark)
    workers = args.workers if args.workers else default_workers()
    store = ResultStore(args.store) if args.store != "none" else None
    progress = (lambda msg: print(f"  {msg}", flush=True)) \
        if args.verbose else None

    started = _time.monotonic()
    result = explore(
        points,
        store=store,
        workers=workers,
        queue_root=args.queue or None,
        budget_frac=args.budget_frac,
        anchors_per_family=args.anchors,
        band_frac=args.band_frac,
        max_rounds=args.max_rounds,
        seed=args.seed,
        timeout_s=args.timeout or None,
        progress=progress,
    )
    wall_s = _time.monotonic() - started

    print(f"explore: grid={result.grid_points} "
          f"simulated={result.simulated} "
          f"({result.sim_fraction:.1%}; skipped "
          f"{result.des_points_skipped_frac:.1%}) "
          f"rounds={result.rounds} wall={wall_s:.1f}s")
    print(f"  model-vs-sim error: latency mean "
          f"{result.latency_error['mean']:.3f} "
          f"p95 {result.latency_error['p95']:.3f}; goodput mean "
          f"{result.goodput_error['mean']:.3f} "
          f"p95 {result.goodput_error['p95']:.3f}")
    print(f"  frontier ({len(result.frontier)} point(s)):")
    for row in result.frontier:
        print(f"    {row['label']}: lat={row['latency_us']:.3f}us "
              f"goodput={row['goodput_rps']:.3e}/s "
              f"[{row['bottleneck']}-bound]")
    if result.failed:
        print(f"  {len(result.failed)} point(s) failed:", file=sys.stderr)
        for label, reason in sorted(result.failed.items()):
            print(f"    {label}: {reason}", file=sys.stderr)
    write_report(result, out_json=args.out_json or None,
                 out_md=args.out_md or None)
    for path in (args.out_json, args.out_md):
        if path:
            print(f"wrote {path}")
    if args.bench_out:
        _tools = os.path.join(
            os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))), "tools",
        )
        if _tools not in sys.path:
            sys.path.insert(0, _tools)
        import bench_trajectory

        record = bench_record(result, args.label, args.grid,
                              args.trace_length, wall_s)
        bench_trajectory.append(record, path=args.bench_out)
        print(f"appended {args.bench_out}")
    return 1 if result.failed else 0


def cmd_schemes(_args: argparse.Namespace) -> int:
    print("canonical schemes:", ", ".join(SCHEMES))
    print("parameterized    : doram+K, doram/C, doram+K/C")
    print("benchmarks       :",
          ", ".join(f"{b.code}({b.mpki})" for b in BENCHMARKS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doram",
        description="D-ORAM (HPCA 2018) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scheme")
    p_run.add_argument("scheme")
    p_run.add_argument("--benchmark", default="libq")
    p_run.add_argument("--trace-length", type=int,
                       default=experiments.DEFAULT_TRACE_LENGTH)
    p_run.add_argument("--faults", default="",
                       help="arm a fault-plan JSON file "
                            "(see 'doram faults --dry-run')")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="simulate one scheme with event tracing enabled"
    )
    p_trace.add_argument("scheme")
    p_trace.add_argument("--benchmark", default="libq")
    p_trace.add_argument("--trace-length", type=int, default=2000)
    p_trace.add_argument("--categories", default="",
                         help="comma-separated trace categories "
                              "(default: all except 'engine')")
    p_trace.add_argument("--snapshot-interval-ns", type=float, default=500.0,
                         help="StatSet sampling period in ns; 0 disables")
    p_trace.add_argument("--jsonl", default="",
                         help="write canonical JSONL events to this path")
    p_trace.add_argument("--chrome", default="",
                         help="write Chrome trace_event JSON to this path")
    p_trace.set_defaults(func=cmd_trace)

    p_exp = sub.add_parser("exp", help="regenerate a paper table/figure")
    p_exp.add_argument("experiment", choices=_EXPERIMENTS + ("all",))
    p_exp.add_argument("--benchmarks", default="",
                       help="comma-separated benchmark codes (default: all)")
    p_exp.add_argument("--trace-length", type=int, default=None)
    p_exp.set_defaults(func=cmd_exp)

    p_sweep = sub.add_parser(
        "sweep",
        help="regenerate figures via the parallel, resumable sweep runner",
    )
    p_sweep.add_argument("--figures", default="all",
                         help="comma-separated figure names (default: all)")
    p_sweep.add_argument("--benchmarks", default="",
                         help="comma-separated benchmark codes (default: all)")
    p_sweep.add_argument("--trace-length", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=0,
                         help="worker processes (default: "
                              "$DORAM_SWEEP_WORKERS or the CPU count)")
    p_sweep.add_argument("--store", default=None,
                         help="result-store directory (default: "
                              "$DORAM_SWEEP_STORE or .doram-sweep; "
                              "'none' disables the store)")
    p_sweep.add_argument("--no-resume", action="store_true",
                         help="re-simulate every point even if stored")
    p_sweep.add_argument("--timeout", type=float, default=0.0,
                         help="per-point wall-clock budget in seconds; a "
                              "point that exceeds it is retried once, then "
                              "reported as failed (0 disables)")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="print per-point progress")
    p_sweep.add_argument("--queue", default="",
                         help="declare the sweep in this work-queue "
                              "directory and drain it with --workers "
                              "local processes (other hosts may --join)")
    p_sweep.add_argument("--join", default="",
                         help="join an existing work-queue directory as "
                              "one worker and drain until done")
    p_sweep.add_argument("--worker-id", default="",
                         help="stable owner id for --join (default: "
                              "host-pid)")
    p_sweep.add_argument("--status", default="",
                         help="print a work-queue directory's drain "
                              "progress and exit")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="T25mix/T33 profiling")
    p_prof.add_argument("benchmark")
    p_prof.add_argument("--trace-length", type=int,
                        default=experiments.DEFAULT_TRACE_LENGTH)
    p_prof.set_defaults(func=cmd_profile)

    p_perf = sub.add_parser(
        "perf", help="cProfile one scheme run (hot-path development aid)"
    )
    p_perf.add_argument("scheme")
    p_perf.add_argument("--benchmark", default="libq")
    p_perf.add_argument("--trace-length", type=int, default=2000)
    p_perf.add_argument("--by-component", action="store_true",
                        help="also print cumulative time rolled up per "
                             "repro.* module (--top rows)")
    p_perf.add_argument("--top", type=int, default=25,
                        help="number of functions to print (default 25)")
    p_perf.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    p_perf.add_argument("--output", default="",
                        help="also dump raw pstats data to this path")
    p_perf.set_defaults(func=cmd_perf)

    p_faults = sub.add_parser(
        "faults",
        help="arm a fault plan and run the end-to-end invariant harness",
    )
    p_faults.add_argument("--plan", required=True,
                          help="fault-plan JSON file (see examples/faults/)")
    p_faults.add_argument("--scheme", default="doram")
    p_faults.add_argument("--benchmark", default="libq")
    p_faults.add_argument("--trace-length", type=int, default=300)
    p_faults.add_argument("--seed", type=int, default=None,
                          help="override the plan's seed (same schedule "
                               "shape, different draws)")
    p_faults.add_argument("--dry-run", action="store_true",
                          help="print the resolved plan without simulating")
    p_faults.set_defaults(func=cmd_faults)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant open-loop service scenario (SLO report)",
    )
    p_serve.add_argument("--tenants", type=int, default=8,
                         help="concurrent S-App tenants (default 8)")
    p_serve.add_argument("--arrival", default="poisson",
                         help="arrival process: poisson, bursty, diurnal")
    p_serve.add_argument("--rate", type=float, default=200_000.0,
                         help="per-tenant mean arrival rate in req/s")
    p_serve.add_argument("--horizon-us", type=float, default=100.0,
                         help="offered-load window in microseconds")
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument("--queue-cap", type=int, default=64,
                         help="per-tenant admission queue capacity")
    p_serve.add_argument("--write-fraction", type=float, default=0.0)
    p_serve.add_argument("--leaf-level", type=int, default=23,
                         help="ORAM tree leaf level per tenant (default 23; "
                              "use ~12 for quick smoke runs)")
    p_serve.add_argument("--slo-target-ns", type=float, default=0.0,
                         help="mean-sojourn SLO target; >0 arms the "
                              "admission governor")
    p_serve.add_argument("--control-interval-us", type=float, default=10.0,
                         help="admission-governor cadence in microseconds")
    p_serve.add_argument("--faults", default="",
                         help="arm a fault-plan JSON on the scenario "
                              "fabric (see examples/faults/)")
    p_serve.add_argument("--digest", action="store_true",
                         help="trace the run and print its event digest")
    p_serve.add_argument("--json", default="",
                         help="write the full SLO report JSON to this path")
    p_serve.add_argument("--sweep-tenants", default="",
                         help="comma-separated tenant counts; with "
                              "--sweep-rates, runs a grid via the sweep "
                              "runner instead of one scenario")
    p_serve.add_argument("--sweep-rates", default="",
                         help="comma-separated per-tenant rates (req/s)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="sweep worker processes")
    p_serve.add_argument("--store", default="none",
                         help="sweep result-store directory "
                              "(default: none = no store)")
    p_serve.set_defaults(func=cmd_serve)

    p_explore = sub.add_parser(
        "explore",
        help="recover the latency/goodput Pareto surface of a config "
             "grid, simulating only the model's predicted frontier band",
    )
    p_explore.add_argument("--grid", default="smoke",
                           help="grid preset: smoke, fig9, full")
    p_explore.add_argument("--benchmark", default="li")
    p_explore.add_argument("--trace-length", type=int, default=300)
    p_explore.add_argument("--workers", type=int, default=0,
                           help="simulation worker processes")
    p_explore.add_argument("--queue", default="",
                           help="drain simulations through this "
                                "work-queue directory (enables "
                                "multi-host participation)")
    p_explore.add_argument("--store", default=None,
                           help="result-store directory ('none' "
                                "disables)")
    p_explore.add_argument("--budget-frac", type=float, default=0.2,
                           help="max fraction of the grid the DES may "
                                "simulate (default 0.2)")
    p_explore.add_argument("--anchors", type=int, default=3,
                           help="calibration anchors per model family")
    p_explore.add_argument("--band-frac", type=float, default=0.08,
                           help="predicted-frontier band width")
    p_explore.add_argument("--max-rounds", type=int, default=4)
    p_explore.add_argument("--seed", type=int, default=1)
    p_explore.add_argument("--timeout", type=float, default=0.0,
                           help="per-point budget in seconds (0 = none)")
    p_explore.add_argument("--out-json", default="",
                           help="write the Pareto surface JSON here")
    p_explore.add_argument("--out-md", default="",
                           help="write the markdown report here")
    p_explore.add_argument("--bench-out", default="",
                           help="append a BENCH_explore.json record here")
    p_explore.add_argument("--label", default="local",
                           help="bench record label (default local)")
    p_explore.add_argument("--verbose", action="store_true")
    p_explore.set_defaults(func=cmd_explore)

    p_chaos = sub.add_parser(
        "chaos",
        help="drain a seeded fault campaign (fault-intensity x scheme x "
             "workload grid) and score availability under faults",
    )
    p_chaos.add_argument("mode", nargs="?", default="run",
                         choices=("run", "report"),
                         help="run: drain the grid; report: render "
                              "tables from an already-drained store")
    p_chaos.add_argument("--campaign", default="",
                         help="campaign-spec JSON file "
                              "(see examples/campaigns/)")
    p_chaos.add_argument("--seed", type=int, default=None,
                         help="override the spec's base seed (fresh "
                              "per-point fault draws)")
    p_chaos.add_argument("--dry-run", action="store_true",
                         help="print the resolved grid and per-point "
                              "plans without simulating")
    p_chaos.add_argument("--store", default="none",
                         help="result-store directory ('none' disables; "
                              "required for --queue and report mode)")
    p_chaos.add_argument("--workers", type=int, default=0,
                         help="worker processes (default: CPU count)")
    p_chaos.add_argument("--digest", action="store_true",
                         help="also capture full event-trace digests "
                              "per point")
    p_chaos.add_argument("--timeout", type=float, default=0.0,
                         help="per-point wall-clock budget in seconds "
                              "(0 disables)")
    p_chaos.add_argument("--queue", default="",
                         help="declare the campaign in this work-queue "
                              "directory and drain it with --workers "
                              "local processes (other hosts may --join)")
    p_chaos.add_argument("--join", default="",
                         help="join an existing work-queue directory as "
                              "one worker and drain until done")
    p_chaos.add_argument("--worker-id", default="",
                         help="stable owner id for --join "
                              "(default: host-pid)")
    p_chaos.add_argument("--status", default="",
                         help="print a work-queue directory's drain "
                              "progress and exit")
    p_chaos.add_argument("--out", default="",
                         help="write the markdown availability table "
                              "to this file")
    p_chaos.add_argument("--bench-out", default="",
                         help="append BENCH_chaos.json records here")
    p_chaos.add_argument("--label", default="local",
                         help="bench record label (default local)")
    p_chaos.add_argument("--verbose", action="store_true",
                         help="print per-point progress")
    p_chaos.set_defaults(func=cmd_chaos)

    p_schemes = sub.add_parser("schemes", help="list schemes/benchmarks")
    p_schemes.set_defaults(func=cmd_schemes)

    p_report = sub.add_parser(
        "report", help="generate the paper-vs-measured EXPERIMENTS report"
    )
    p_report.add_argument("--benchmarks", default="")
    p_report.add_argument("--trace-length", type=int, default=None)
    p_report.add_argument("--output", default="",
                          help="write to a file instead of stdout")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
