"""Command-line interface: ``python -m repro.cli`` or the ``doram`` script.

Subcommands
-----------
``run SCHEME``       simulate one configuration and print its summary
``trace SCHEME``     run with event tracing on; write JSONL and/or Chrome
                     ``trace_event`` JSON (open in https://ui.perfetto.dev)
``exp EXPERIMENT``   regenerate a paper exhibit or ablation from the
                     experiment registry (or ``all``) and print its
                     checks; exit 1 if one fails
``sweep``            the same exhibits through the resumable sweep runner:
                     a result store, local workers or a shared work queue
``report``           render every exhibit as the EXPERIMENTS.md report
``profile BENCH``    print the T25mix/T33 profiling decision for a benchmark
``perf SCHEME``      cProfile one scheme run and print the hottest functions
``faults``           arm a fault plan and run the invariant harness
``serve``            run the multi-tenant open-loop service scenario and
                     print its per-tenant SLO report (or sweep a grid)
``chaos``            drain a seeded fault campaign (fault intensity x
                     scheme x workload) under the invariant harness and
                     score availability / goodput-under-faults;
                     ``chaos report`` re-renders a drained store
``schemes``          list the recognized scheme names

Each flag that several subcommands take is declared once: an argparse
parent where its default is the same everywhere, one ``_add_*`` helper
where the default differs by subcommand.  A run's configuration is
exactly its arguments; nothing here reads the environment.

``sweep`` and ``chaos`` speak the distributed work-queue protocol:
``--queue DIR`` declares the sweep and drains it with ``--workers``
local workers, ``--join DIR --worker-id ID`` attaches one extra worker
(on this or any host sharing the filesystem), and ``--status DIR``
prints drain progress
(done/leased/pending/failed, per-worker throughput).  Without
``--queue``, ``--workers N > 1`` drains a private queue in a temporary
directory; ``--workers 1`` runs serially in-process.

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
    trace_length: int,
) -> Optional[str]:
    """Resolve the full config up front; an error string, or ``None``.

    ``make_config`` runs every :class:`SystemConfig` consistency check
    (scheme grammar, k-split vs placement, c-limit range, ...), so a bad
    ``doram+9/99`` fails here instead of mid-build.
    """
    if trace_length <= 0:
        return f"--trace-length must be positive (got {trace_length})"
    if benchmark is not None:
        try:
            benchmark_by_code(benchmark)
        except KeyError as exc:
            return str(exc.args[0])
    if scheme is not None:
        try:
            make_config(scheme, benchmark or "libq", trace_length)
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

    A developer convenience for the hot-path work that
    ``benchmarks/e2e`` measures: runs the same simulation as ``doram
    run`` with the profiler attached and prints the top functions.
    Note cProfile's per-call overhead inflates small, frequently-called
    functions relative to the sampling profile -- treat the ranking as
    a map, not a measurement; ``benchmarks/e2e/run.py --trace 1`` gives
    the per-layer split without that distortion (see DESIGN.md,
    "Performance engineering").
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


def _print_experiment(name: str, output) -> None:
    """Print one experiment's table and verdicts (``exp`` and ``sweep``)."""
    exp = experiments.EXPERIMENTS[name]
    print(f"\n== {exp.title} ==")
    if exp.paper:
        print(exp.paper)
    headers, rows = exp.table(output)
    print(_format_table(headers, [
        [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]))
    for text, _ok in exp.verdicts(output):
        print(text)


def _experiment_names(arg: str) -> Tuple[Tuple[str, ...], Optional[str]]:
    """``all`` or comma-separated registry names -> (names, error)."""
    if arg == "all":
        return tuple(experiments.EXPERIMENTS), None
    names = tuple(name.strip() for name in arg.split(","))
    unknown = set(names) - set(experiments.EXPERIMENTS)
    if unknown:
        return names, (f"unknown figures: {', '.join(sorted(unknown))} "
                       f"(known: {', '.join(experiments.EXPERIMENTS)})")
    return names, None


def _sweep_failed(sweep, store) -> int:
    """Report a sweep's failed points on stderr; exit status 1."""
    _print_sweep_summary(sweep, store)
    print(f"sweep: {len(sweep.failed)} point(s) FAILED after retry:",
          file=sys.stderr)
    for point, reason in sweep.failed.items():
        print(f"  {point.label}: {reason}", file=sys.stderr)
    return 1


def _regenerate(args: argparse.Namespace, names, show) -> int:
    """Regenerate ``names`` serially with no store, ``show(outputs,
    benchmarks)`` them, and exit 1 if a point or a check failed."""
    from repro.analysis.sweep import SweepFailure

    benchmarks, error = _parse_benchmarks(args.benchmarks)
    error = error or _validate_point(None, None, args.trace_length)
    if error:
        return _fail(error)
    try:
        outputs, _sweep = experiments.run_figures(
            names, benchmarks, args.trace_length)
    except SweepFailure as failure:
        return _sweep_failed(failure.sweep_result, None)
    show(outputs, benchmarks)
    failed = [text for name, output in outputs.items()
              for text, ok in experiments.EXPERIMENTS[name].verdicts(output)
              if not ok]
    for text in failed:
        print(f"doram: check failed: {text}", file=sys.stderr)
    return 1 if failed else 0


def cmd_exp(args: argparse.Namespace) -> int:
    """Regenerate experiments and print them; exit 1 if a check fails."""
    names = _experiment_names(args.experiment)[0]

    def show(outputs, _benchmarks):
        for name in names:
            _print_experiment(name, outputs[name])
    return _regenerate(args, names, show)


def _print_sweep_summary(sweep, store) -> None:
    retried = f" retried={sweep.retried}" if sweep.retried else ""
    print(f"sweep: {sweep.total} points "
          f"({sweep.simulated} simulated, {sweep.store_hits} from store) "
          f"workers={sweep.workers} wall={sweep.wall_s:.2f}s "
          f"({sweep.points_per_s:.2f} points/s){retried}")
    if store is not None:
        print(f"store: {store.root} ({len(store)} entries)")


def _progress(args: argparse.Namespace):
    """``--verbose`` -> a per-point progress printer, else ``None``."""
    if not args.verbose:
        return None
    return lambda msg: print(f"  {msg}", flush=True)


def _store(args: argparse.Namespace):
    """``--store`` -> a result store, or ``None`` for ``--store none``."""
    from repro.analysis.sweep import ResultStore

    return ResultStore(args.store) if args.store != "none" else None


def _sweep_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the ``--workers`` (and ``--timeout``) sweep options."""
    if args.workers < 1:
        return f"--workers must be >= 1 (got {args.workers})"
    if getattr(args, "timeout", 0.0) < 0:
        return f"--timeout must be >= 0 (got {args.timeout:g})"
    return None


def _queue_modes(args: argparse.Namespace) -> Optional[int]:
    """``--status DIR`` / ``--join DIR``, shared by ``sweep`` and
    ``chaos``: the exit status when one of them ran, else ``None``."""
    from repro.analysis.workqueue import (
        WorkQueue,
        WorkQueueError,
        default_owner,
    )

    if sum(map(bool, (args.queue, args.join, args.status))) > 1:
        return _fail("--queue, --join and --status are mutually exclusive")
    if not (args.status or args.join):
        return None
    try:
        queue = WorkQueue.join(args.status or args.join)
    except WorkQueueError as exc:
        return _fail(str(exc))
    if args.status:
        print(f"queue: {args.status} (store {queue.store.root})")
        for line in queue.stats().describe():
            print(f"  {line}")
        return 0
    owner = args.worker_id or default_owner()
    drain = queue.drain(owner=owner, progress=_progress(args))
    print(f"worker {owner}: {drain.completed} completed, "
          f"{drain.skipped} skipped, {drain.reclaimed} reclaimed, "
          f"{len(drain.failed)} failed in {drain.wall_s:.2f}s")
    return 1 if drain.failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Resumable regeneration of one or more figures."""
    from repro.analysis.sweep import SweepFailure
    from repro.analysis.workqueue import WorkQueueError

    code = _queue_modes(args)
    if code is not None:
        return code

    names, error = _experiment_names(args.figures)
    if error:
        return _fail(error)
    benchmarks, error = _parse_benchmarks(args.benchmarks)
    error = (error or _validate_point(None, None, args.trace_length)
             or _sweep_error(args))
    if error is None and args.queue and args.no_resume:
        error = ("--no-resume cannot be honoured with --queue: the "
                 "queue's workers resume from its shared store")
    if error is None and args.queue and args.store == "none":
        error = "--queue needs a result store (drop --store none)"
    if error:
        return _fail(error)
    store = _store(args)

    try:
        outputs, sweep = experiments.run_figures(
            names, benchmarks, args.trace_length,
            workers=args.workers, store=store, resume=not args.no_resume,
            progress=_progress(args), timeout_s=args.timeout or None,
            queue=args.queue or None,
        )
    except WorkQueueError as exc:
        return _fail(str(exc))
    except SweepFailure as failure:
        return _sweep_failed(failure.sweep_result, store)
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
    """Regenerate every experiment into the markdown report; exit 1 if a
    check fails.  ``--output`` rewrites only the marked part of a file
    that exists (read before simulating; a new file gets the marks), and
    exits 2 before simulating when that file has no marks."""
    from repro.analysis.report import (
        REPORT_BEGIN,
        REPORT_END,
        render_report,
        splice_report,
    )

    if args.output:
        try:
            with open(args.output) as fp:
                document = fp.read()
        except FileNotFoundError:
            document = f"{REPORT_BEGIN}\n{REPORT_END}\n"
        try:
            splice_report(document, "")
        except ValueError as exc:
            return _fail(f"--output {args.output}: {exc}")

    def show(outputs, benchmarks):
        text = render_report(outputs, benchmarks, args.trace_length)
        if not args.output:
            print(text)
            return
        with open(args.output, "w") as fp:
            fp.write(splice_report(document, text))
        print(f"wrote {args.output}")
    return _regenerate(args, tuple(experiments.EXPERIMENTS), show)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant open-loop service scenario (or a sweep)."""
    import json as _json

    from repro.scenarios import (
        ARRIVAL_KINDS,
        ScenarioConfig,
        apply_overrides,
        format_report,
        run_scenario,
        scenario_grid,
        slo_rows,
    )

    if args.arrival not in ARRIVAL_KINDS:
        return _fail(
            f"unknown arrival kind {args.arrival!r} "
            f"(known: {', '.join(ARRIVAL_KINDS)})"
        )
    error = _sweep_error(args)
    if error:
        return _fail(error)
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
    except ValueError as exc:
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
        from repro.analysis.sweep import run_sweep

        # Parse the lists and build every grid config before simulating.
        try:
            tenants = [int(v) for v in args.sweep_tenants.split(",") if v]
        except ValueError:
            return _fail("--sweep-tenants takes comma-separated integers "
                         f"(got {args.sweep_tenants!r})")
        try:
            rates = [float(v) for v in args.sweep_rates.split(",") if v]
        except ValueError:
            return _fail("--sweep-rates takes comma-separated numbers "
                         f"(got {args.sweep_rates!r})")
        base = {k: v for k, v in overrides.items()
                if k not in ("num_tenants", "arrival.rate_rps")}
        points = scenario_grid(tenants or [args.tenants],
                               rates or [args.rate], base)
        try:
            for point in points:
                point.resolved_config()
        except ValueError as exc:
            return _fail(str(exc))
        store = _store(args)
        sweep = run_sweep(points, workers=args.workers, store=store)
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


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault campaigns: drain, gate invariants, score, report."""
    import dataclasses

    from repro.faults.campaign import (
        CampaignError,
        CampaignSpec,
        bench_records,
        chaos_rows,
        render_markdown,
    )

    code = _queue_modes(args)
    if code is not None:
        return code

    if not args.campaign:
        return _fail("chaos needs --campaign SPEC.json "
                     "(see examples/campaigns/)")
    try:
        spec = CampaignSpec.from_file(args.campaign)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    except CampaignError as exc:
        return _fail(str(exc))
    error = _sweep_error(args)
    if error:
        return _fail(error)

    if args.dry_run:
        print("\n".join(spec.describe()))
        return 0

    from repro.analysis.sweep import run_sweep
    from repro.analysis.workqueue import WorkQueueError

    points = spec.grid()
    store = _store(args)

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
        if args.queue and store is None:
            return _fail("--queue needs a result store (drop --store none)")
        try:
            sweep = run_sweep(
                points, workers=args.workers, store=store,
                with_digest=args.digest, progress=_progress(args),
                timeout_s=args.timeout or None, queue=args.queue or None,
            )
        except WorkQueueError as exc:
            return _fail(str(exc))
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
        from repro.analysis.trajectory import append

        for record in bench_records(rows, args.label, wall_s):
            append(record, args.bench_out)
        print(f"appended {len(rows)} records to {args.bench_out}")
    return 1 if violated else 0


def cmd_schemes(_args: argparse.Namespace) -> int:
    print("canonical schemes:", ", ".join(SCHEMES))
    print("parameterized    : doram+K, doram/C, doram+K/C")
    print("benchmarks       :",
          ", ".join(f"{b.code}({b.mpki})" for b in BENCHMARKS))
    return 0


def _parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


# Flags whose default differs by subcommand get one helper each, not a
# shared parent: parents share their Action objects, so a per-child
# ``set_defaults`` on a parent's flag would leak into every sibling.
def _add_trace_length(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument("--trace-length", type=int, default=default,
                        help=f"memory accesses per core (default {default})")


def _add_benchmark(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--benchmark", default=default,
                        help=f"benchmark code (default {default})")


def _add_store(parser: argparse.ArgumentParser,
               default: Optional[str]) -> None:
    parser.add_argument("--store", default=default,
                        help="result-store directory ('none' disables; "
                             f"default {default or '.doram-sweep'})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doram",
        description="D-ORAM (HPCA 2018) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags with one default everywhere, declared once as parents.
    benchmarks = _parent()
    benchmarks.add_argument("--benchmarks", default="",
                            help="comma-separated benchmark codes "
                                 "(default: all)")
    faults = _parent()
    faults.add_argument("--faults", default="",
                        help="arm a fault-plan JSON file "
                             "(see examples/faults/)")
    workers = _parent()
    workers.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                         help="local workers (default: the CPU count); "
                              ">1 drains a work queue")
    drain = _parent(workers)
    drain.add_argument("--timeout", type=float, default=0.0,
                       help="per-point wall-clock budget in seconds; a "
                            "point that exceeds it is retried once, then "
                            "reported as failed (0 disables)")
    drain.add_argument("--verbose", action="store_true",
                       help="print per-point progress")
    drain.add_argument("--queue", default="",
                       help="declare the work in this work-queue directory "
                            "and drain it with --workers local workers "
                            "(other hosts may join)")
    drain.add_argument("--join", default="",
                       help="join an existing work-queue directory "
                            "as one worker and drain until done")
    drain.add_argument("--worker-id", default="",
                       help="stable owner id for --join (default: "
                            "host-pid)")
    drain.add_argument("--status", default="",
                       help="print a work-queue directory's drain "
                            "progress and exit")

    p_run = sub.add_parser("run", parents=[faults],
                           help="simulate one scheme")
    p_run.add_argument("scheme")
    _add_benchmark(p_run, "libq")
    _add_trace_length(p_run, experiments.DEFAULT_TRACE_LENGTH)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="simulate one scheme with event tracing enabled"
    )
    p_trace.add_argument("scheme")
    _add_benchmark(p_trace, "libq")
    _add_trace_length(p_trace, 2000)
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

    p_exp = sub.add_parser(
        "exp", parents=[benchmarks],
        help="regenerate a paper exhibit or ablation and check it",
    )
    p_exp.add_argument("experiment",
                       choices=tuple(experiments.EXPERIMENTS) + ("all",))
    _add_trace_length(p_exp, experiments.DEFAULT_TRACE_LENGTH)
    p_exp.set_defaults(func=cmd_exp)

    p_sweep = sub.add_parser(
        "sweep", parents=[benchmarks, drain],
        help="regenerate figures via the resumable sweep runner",
    )
    p_sweep.add_argument("--figures", default="all",
                         help="comma-separated experiment names "
                              "(default: all)")
    _add_trace_length(p_sweep, experiments.DEFAULT_TRACE_LENGTH)
    _add_store(p_sweep, None)
    p_sweep.add_argument("--no-resume", action="store_true",
                         help="re-simulate every point even if stored "
                              "(not with --queue)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="T25mix/T33 profiling")
    p_prof.add_argument("benchmark")
    _add_trace_length(p_prof, experiments.DEFAULT_TRACE_LENGTH)
    p_prof.set_defaults(func=cmd_profile)

    p_perf = sub.add_parser(
        "perf", help="cProfile one scheme run (hot-path development aid)"
    )
    p_perf.add_argument("scheme")
    _add_benchmark(p_perf, "libq")
    _add_trace_length(p_perf, 2000)
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
    _add_benchmark(p_faults, "libq")
    _add_trace_length(p_faults, 300)
    p_faults.add_argument("--seed", type=int, default=None,
                          help="override the plan's seed (same schedule "
                               "shape, different draws)")
    p_faults.add_argument("--dry-run", action="store_true",
                          help="print the resolved plan without simulating")
    p_faults.set_defaults(func=cmd_faults)

    p_serve = sub.add_parser(
        "serve", parents=[faults, workers],
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
    _add_store(p_serve, "none")
    p_serve.set_defaults(func=cmd_serve)

    p_chaos = sub.add_parser(
        "chaos", parents=[drain],
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
    _add_store(p_chaos, "none")
    p_chaos.add_argument("--digest", action="store_true",
                         help="also capture full event-trace digests "
                              "per point")
    p_chaos.add_argument("--out", default="",
                         help="write the markdown availability table "
                              "to this file")
    p_chaos.add_argument("--bench-out", default="",
                         help="append trajectory records to this "
                              "BENCH_*.json file")
    p_chaos.add_argument("--label", default="local",
                         help="bench record label (default local)")
    p_chaos.set_defaults(func=cmd_chaos)

    p_schemes = sub.add_parser("schemes", help="list schemes/benchmarks")
    p_schemes.set_defaults(func=cmd_schemes)

    p_report = sub.add_parser(
        "report", parents=[benchmarks],
        help="generate the paper-vs-measured EXPERIMENTS report",
    )
    _add_trace_length(p_report, experiments.DEFAULT_TRACE_LENGTH)
    p_report.add_argument("--output", default="",
                          help="write to a file instead of stdout")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
