"""``python -m repro`` -- the reproduction command line.

Subcommands::

    repro list                 # workloads and tracker schemes
    repro run WORKLOAD [...]   # one (workload, config) simulation
    repro trace WORKLOAD [...] # traced window -> JSONL/Chrome/Kanata/SVG
    repro sweep [...]          # parallel evaluation matrix + report artifacts
    repro paper [...]          # the paper's Figures 7-9 -> artifacts/paper/
    repro report SWEEP.json    # re-render tables from a saved artifact
    repro store ACTION FILE    # results-store maintenance (verify/stats/compact)
    repro bench [...]          # simulator throughput benchmarks -> BENCH_core.json
    repro serve [...]          # HTTP sweep service (docs/service.md)

``sweep`` is the paper-table entry point: it expands a
:class:`~repro.experiments.grid.SweepSpec` from the flags, runs it on a
worker pool with a warm trace cache, prints the markdown speedup table and
writes ``sweep.md`` / ``sweep.csv`` / ``sweep.json`` under ``--out-dir``;
``--resume`` additionally keeps an append-only results store next to the
artifacts so an interrupted matrix restarts where it stopped.  ``paper``
runs the declarative figure grids on the same machinery and renders SVG
charts, ``figures.json`` and a narrated ``REPORT.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.bench.report import BenchReport, compare_reports
from repro.bench.suite import TIERS, BenchConfig, run_benchmarks
from repro.experiments.grid import (SCHEME_PRESETS, SweepSpec, known_schemes,
                                    scheme_config)
from repro.experiments.report import SweepReport
from repro.experiments.runner import run_sweep
from repro.experiments.scheduler import ReliabilityStats
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core, simulate
from repro.telemetry import ProgressReporter, RunLogger
from repro.workloads import generate_trace, workload_families, workload_specs


def _csv_list(text: str) -> tuple[str, ...]:
    """Parse a comma-separated flag value into a tuple of names."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


#: Sampled-window geometry flags: flag -> (default, what the length sizes).
_GEOMETRY_FLAGS = {
    "--sample-window": (2_000, "measured detailed window length"),
    "--warmup": (500, "detailed warmup before each window"),
    "--cooldown": (300, "detailed cooldown after each window"),
}


def _add_machine_flags(parser: argparse.ArgumentParser) -> None:
    """The machine ``run`` and ``trace`` simulate (see :func:`scheme_config`)."""
    parser.add_argument("--scheme", default="isrb", choices=known_schemes())
    parser.add_argument("--baseline", action="store_true",
                        help="use the no-sharing Table-1 baseline instead")
    parser.add_argument("--no-move-elim", action="store_true",
                        help="disable move elimination")
    parser.add_argument("--no-smb", action="store_true",
                        help="disable speculative memory bypassing")
    parser.add_argument("--seed", type=int, default=1)


def _add_sampling_flags(parser: argparse.ArgumentParser, *geometry: str) -> None:
    """Two-speed sampling flags; ``geometry`` picks from :data:`_GEOMETRY_FLAGS`."""
    parser.add_argument("--sample-period", type=int, default=None, metavar="N",
                        help="two-speed sampled simulation: one detailed "
                             "window every N retired micro-ops")
    for flag in geometry:
        default, what = _GEOMETRY_FLAGS[flag]
        parser.add_argument(flag, type=int, default=default, metavar="N",
                            help=f"{what} (default {default})")
    parser.add_argument("--ipc-tolerance", type=float, default=None, metavar="F",
                        help="error-budget sampled mode: grow the detailed "
                             "window count until the per-window IPC 95%% CI "
                             "relative half-width is <= F (e.g. 0.02); implies "
                             "sampling even without --sample-period")


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """How ``sweep`` and ``paper`` run their cells and report progress."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell wall-clock budget in seconds")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    parser.add_argument("--log", default=None, metavar="RUN.jsonl",
                        help="append structured run events (phases, per-cell "
                             "outcomes, failure warnings) as JSON lines")


def _build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPCA'16 physical-register-sharing reproduction harness")
    parser.add_argument("--version", action="version",
                        version=f"repro {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and tracker schemes")

    run = sub.add_parser("run", help="simulate one (workload, config) pair")
    run.add_argument("workload")
    _add_machine_flags(run)
    run.add_argument("--max-ops", type=int, default=20_000)
    _add_sampling_flags(run, "--sample-window", "--warmup")
    run.add_argument("--json", action="store_true",
                     help="print the full result as JSON")

    trace = sub.add_parser(
        "trace",
        help="run a bounded traced window and render the pipeline timeline "
             "(JSONL + Chrome trace-event JSON + Kanata + SVG)")
    trace.add_argument("workload")
    _add_machine_flags(trace)
    trace.add_argument("--max-ops", type=int, default=4_000,
                       help="trace length to simulate (default 4000)")
    trace.add_argument("--start", type=int, default=0, metavar="SEQ",
                       help="first traced sequence number (default 0)")
    trace.add_argument("--window", type=int, default=200, metavar="N",
                       help="traced window length in micro-ops (default 200)")
    trace.add_argument("--rows", type=int, default=64, metavar="N",
                       help="max instruction rows in timeline.svg (default 64)")
    trace.add_argument("--out-dir", default="trace_out",
                       help="artifact directory (default: trace_out)")

    sweep = sub.add_parser("sweep", help="run an evaluation matrix in parallel")
    sweep.add_argument("--spec", default=None, metavar="SPEC.json",
                       help="read the sweep spec from a JSON document: a bare "
                            "spec or a POST /sweeps submission envelope "
                            "(overrides the grid flags below)")
    sweep.add_argument("--schemes", type=_csv_list, default=("isrb",),
                       help="comma-separated tracker schemes "
                            f"(known: {','.join(known_schemes())})")
    sweep.add_argument("--workloads", type=_csv_list, default=(),
                       help="comma-separated workloads (default: full suite)")
    sweep.add_argument("--max-ops", type=int, default=20_000)
    sweep.add_argument("--seed", type=int, default=1)
    _add_execution_flags(sweep)
    sweep.add_argument("--move-elim-ablation", action="store_true",
                       help="cross in move-elim off/on instead of always-on")
    sweep.add_argument("--smb-ablation", action="store_true",
                       help="cross in SMB off/on instead of always-on")
    sweep.add_argument("--entries", type=str, default="",
                       help="comma-separated tracker sizes overriding the "
                            "per-scheme preset (e.g. 8,16,32; 'unl' = unlimited)")
    _add_sampling_flags(sweep, "--sample-window", "--warmup", "--cooldown")
    sweep.add_argument("--cache-dir", default=".trace_cache",
                       help="trace/plan cache directory ('' disables caching)")
    sweep.add_argument("--out-dir", default="sweep_out",
                       help="directory for sweep.md / sweep.csv / sweep.json")
    sweep.add_argument("--resume", action="store_true",
                       help="keep an append-only results store under "
                            "--out-dir and skip cells it already holds "
                            "(interrupted sweeps restart where they stopped)")
    # Hidden chaos knobs (CI + tests): deterministically inject worker
    # crashes / hangs / transient raises / torn store writes.  The sweep
    # must still converge to byte-identical artifacts -- that is the
    # contract these flags exist to check, not a user feature.
    sweep.add_argument("--inject-faults", type=int, default=None,
                       metavar="SEED", help=argparse.SUPPRESS)
    sweep.add_argument("--fault-rate", type=float, default=0.3,
                       help=argparse.SUPPRESS)
    sweep.add_argument("--fault-kinds", type=_csv_list, default=(),
                       help=argparse.SUPPRESS)

    paper = sub.add_parser(
        "paper",
        help="reproduce the paper's Figures 7-9 (SVG charts + REPORT.md + "
             "figures.json), resumably")
    paper.add_argument("--figure", action="append", choices=("7", "8", "9"),
                       default=None, metavar="N",
                       help="figure to (re)produce; repeatable (default: all)")
    paper.add_argument("--smoke", action="store_true",
                       help="reduced grids (CI-sized: well under 2 minutes)")
    _add_sampling_flags(paper)
    _add_execution_flags(paper)
    paper.add_argument("--seed", type=int, default=1)
    paper.add_argument("--out-dir", default="artifacts/paper",
                       help="artifact directory (default: artifacts/paper)")
    paper.add_argument("--store", default=None, metavar="RESULTS.jsonl",
                       help="results-store file (default: "
                            "<out-dir>/store/results.jsonl)")

    report = sub.add_parser("report", help="re-render a saved sweep artifact")
    report.add_argument("artifact", help="path to a sweep.json file")
    report.add_argument("--format", choices=("markdown", "csv", "json"),
                        default="markdown")

    store = sub.add_parser(
        "store",
        help="results-store maintenance: verify integrity, print stats, or "
             "compact to canonical form (dedup, strip torn lines, prune "
             "stale leases)")
    store.add_argument("action", choices=("verify", "stats", "compact"))
    store.add_argument("store_file", metavar="RESULTS.jsonl",
                       help="results-store file (e.g. "
                            "sweep_out/results_store.jsonl)")
    store.add_argument("--keep-meta", action="store_true",
                       help="compact: keep per-record observability metadata "
                            "(wall times) instead of stripping it")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP sweep service: submit sweeps over REST, stream "
             "progress via SSE, share one results store across clients "
             "(docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = pick a free one; default 8765)")
    serve.add_argument("--store", default="service_store/results.jsonl",
                       metavar="RESULTS.jsonl",
                       help="shared results store backing every sweep "
                            "(default: service_store/results.jsonl)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes per running sweep "
                            "(default 1 = in-process)")
    serve.add_argument("--concurrent", type=int, default=2, metavar="N",
                       help="sweeps running at once (default 2)")
    serve.add_argument("--quota", type=int, default=2, metavar="N",
                       help="active sweeps one client may hold (default 2)")
    serve.add_argument("--queue-limit", type=int, default=8, metavar="N",
                       help="active sweeps service-wide (default 8)")
    serve.add_argument("--cache-dir", default="",
                       help="trace/plan cache directory ('' disables caching, "
                            "the default: served reports stay byte-identical "
                            "to direct --cache-dir '' runs)")

    bench = sub.add_parser(
        "bench",
        help="benchmark the simulator itself (trace gen, per-scheme "
             "simulation, end-to-end sweep)")
    bench.add_argument("--workloads", type=_csv_list, default=(),
                       help="comma-separated workloads to time "
                            "(default: the standard bench set)")
    bench.add_argument("--schemes", type=_csv_list, default=(),
                       help="comma-separated tracker schemes to time; "
                            "'baseline' means the no-sharing machine "
                            "(default: baseline,isrb,refcount,matrix)")
    bench.add_argument("--max-ops", type=int, default=None,
                       help="trace length per benchmarked workload "
                            "(default: 20000, or 4000 with --smoke)")
    bench.add_argument("--repeat", type=int, default=None,
                       help="repeats per case; best wall time is reported "
                            "(default: 2, or 1 with --smoke)")
    for tier in TIERS:
        if tier.flag is not None:
            bench.add_argument(f"--no-{tier.flag}", action="store_true",
                               help=tier.help)
    bench.add_argument("--out", default="BENCH_core.json",
                       help="output artifact path ('' = don't write)")
    bench.add_argument("--smoke", action="store_true",
                       help="reduced CI suite; with --baseline, fail on "
                            "errors or regressions beyond --tolerance")
    bench.add_argument("--baseline", default=None, metavar="BENCH.json",
                       help="committed baseline artifact to compare against")
    bench.add_argument("--check", default=None, metavar="BENCH.json",
                       help="compare an existing artifact against --baseline "
                            "instead of running benchmarks (CI gate between "
                            "two saved runs)")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional slowdown vs the baseline "
                            "(default 0.30)")
    bench.add_argument("--gate-kinds", type=_csv_list, default=(),
                       metavar="KINDS",
                       help="restrict the baseline gate to these benchmark "
                            "kinds (e.g. 'sim' for the tight tracing-off "
                            "overhead gate; default: every shared kind)")
    bench.add_argument("--profile", action="store_true",
                       help="run the selected benchmark tiers under cProfile "
                            "and print the top-20 cumulative functions, so "
                            "performance work is measured, not guessed")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress per-case progress lines")
    return parser


# -- subcommands --------------------------------------------------------------------


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for spec in workload_specs():
        print(f"  {spec.name:16s} [{spec.category}] {spec.description}")
    print("\nworkload families (usable anywhere a workload name is):")
    for prefix, description in sorted(workload_families().items()):
        print(f"  {prefix + ':...':16s} {description}")
    print("\ntracker schemes:")
    for name in known_schemes():
        preset = SCHEME_PRESETS[name]
        entries = preset["entries"] if preset["entries"] is not None else "unlimited"
        bits = preset["counter_bits"] if preset["counter_bits"] is not None else "unbounded"
        print(f"  {name:20s} entries={entries} counter_bits={bits}")
    return 0


def _config_from_flags(args: argparse.Namespace) -> CoreConfig:
    """The core configuration described by the run/trace machine flags."""
    return scheme_config("baseline" if args.baseline else args.scheme,
                         move_elim=not args.no_move_elim, smb=not args.no_smb)


def _write_trace_artifacts(tracer, out_dir, rows: int) -> dict[str, Path]:
    """Write every trace export format for one completed traced run."""
    from repro.paper.charts import timeline_chart

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "jsonl": out / "trace.jsonl",
        "chrome": out / "trace.chrome.json",
        "kanata": out / "trace.kanata",
        "svg": out / "timeline.svg",
    }
    paths["jsonl"].write_text(tracer.to_jsonl())
    paths["chrome"].write_text(
        json.dumps(tracer.to_chrome_trace(), indent=1, sort_keys=True) + "\n")
    paths["kanata"].write_text(tracer.to_kanata())
    title = f"{tracer.workload} pipeline timeline [{tracer.scheme}]"
    paths["svg"].write_text(
        timeline_chart(title, tracer.timeline(), max_rows=rows) + "\n")
    return paths


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_flags(args)
    sampled = args.sample_period is not None or args.ipc_tolerance is not None
    try:
        if sampled:
            from repro.pipeline.sampling import SamplingConfig, simulate_sampled

            extra = ({"tolerance": args.ipc_tolerance}
                     if args.ipc_tolerance is not None else {})
            sampling = SamplingConfig(
                period=(args.sample_period if args.sample_period is not None
                        else SamplingConfig().period),
                window=args.sample_window,
                warmup=args.warmup, **extra)
            result = simulate_sampled(args.workload, config, sampling,
                                      max_ops=args.max_ops, seed=args.seed)
        else:
            result = simulate(args.workload, config, max_ops=args.max_ops,
                              seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())
        if sampled:
            if "sampling_ipc_std" in result.stats:
                interval = (f"[{result.stat('sampling_ipc_ci95_low'):.3f}, "
                            f"{result.stat('sampling_ipc_ci95_high'):.3f}] "
                            "95% CI")
            else:
                interval = "CI n/a (single window)"
            print(f"  sampled: {result.stat('sampling_windows'):.0f} windows, "
                  f"IPC {result.stat('sampling_ipc_mean'):.3f} {interval}, "
                  f"{result.stat('fastforwarded_instructions'):.0f} micro-ops "
                  "fast-forwarded")
            if args.ipc_tolerance is not None:
                from repro.telemetry.metrics import sampling_stop_reason

                reason = sampling_stop_reason(
                    result.stat("sampling_stop_reason_code"))
                print(f"  error budget: +/-{args.ipc_tolerance * 100:g}% IPC "
                      f"-> stopped on '{reason}' after "
                      f"{result.stat('sampling_probe_rounds'):.0f} probe "
                      f"round(s), {result.stat('sampling_probe_instructions'):.0f} "
                      "probed micro-ops")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        config = _config_from_flags(args).with_trace(start=args.start,
                                                     limit=args.window)
        trace = generate_trace(args.workload, max_ops=args.max_ops,
                               seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    core = Core(config)
    result = core.run(trace)
    tracer = core.tracer
    print(result.summary())
    summary = tracer.summary()
    note = ", event cap hit (narrow --window)" if tracer.truncated else ""
    print(f"traced window: seq [{args.start}, {args.start + args.window}) -> "
          f"{summary.value('traced_instructions'):.0f} lifecycle(s), "
          f"{len(tracer.events)} event(s), "
          f"{summary.value('traced_squashes'):.0f} squash(es){note}")
    paths = _write_trace_artifacts(tracer, args.out_dir, rows=args.rows)
    for name in ("jsonl", "chrome", "kanata", "svg"):
        print(f"  {name:6s}: {paths[name]}")
    return 0


def _parse_entries(text: str) -> tuple[int | None, ...]:
    if not text:
        return ()
    values: list[int | None] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        values.append(None if token in ("unl", "unlimited", "none") else int(token))
    return tuple(values)


def _make_observability(args: argparse.Namespace, label: str):
    """(progress callback, logger) for a sweep-shaped command.

    Progress is a live ``[completed/total]`` line with cells/s and ETA
    (suppressed by ``--quiet``); the logger collects phase timings and
    failure warnings, and also appends JSON lines when ``--log`` is given.
    """
    progress = None
    if not args.quiet:
        progress = ProgressReporter(stream=sys.stderr, label=label).job_progress
    logger = None
    if args.log or not args.quiet:
        logger = RunLogger(path=args.log,
                           stream=None if args.quiet else sys.stderr)
    return progress, logger


def _finish_observability(logger) -> None:
    """Print the phase-time summary and close the log file."""
    if logger is None:
        return
    if logger.phase_seconds:
        phases = "  ".join(f"{name} {seconds:.1f}s"
                           for name, seconds in logger.phase_seconds.items())
        print(f"phases: {phases}", file=sys.stderr)
    if logger.path is not None:
        print(f"run log: {logger.path}", file=sys.stderr)
    logger.close()


def _load_spec_file(path: str):
    """``(spec, fault plan)`` from a bare spec or a ``POST /sweeps`` envelope.

    An envelope goes through the service's own parser, so the file accepts
    exactly what the service accepts, ``"faults"`` block included.
    """
    from repro.service import schemas

    try:
        body = Path(path).read_bytes()
        data = json.loads(body)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from exc
    if isinstance(data, dict) and ("api" in data or "spec" in data):
        return schemas.parse_submission(body)
    return schemas.spec_from_dict(data), None


def _cmd_sweep(args: argparse.Namespace) -> int:
    fault_plan = None
    try:
        if args.spec:
            spec, fault_plan = _load_spec_file(args.spec)
        else:
            spec = SweepSpec(
                schemes=tuple(args.schemes),
                workloads=tuple(args.workloads),
                move_elim=(False, True) if args.move_elim_ablation else (True,),
                smb=(False, True) if args.smb_ablation else (True,),
                entries=_parse_entries(args.entries),
                max_ops=args.max_ops,
                seed=args.seed,
                sample_period=args.sample_period,
                sample_window=args.sample_window,
                sample_warmup=args.warmup,
                sample_cooldown=args.cooldown,
                sample_tolerance=args.ipc_tolerance,
            )
        if args.inject_faults is not None:
            from repro.experiments.faults import FaultPlan

            fault_plan = FaultPlan(
                seed=args.inject_faults, rate=args.fault_rate,
                **({"kinds": tuple(args.fault_kinds)} if args.fault_kinds
                   else {}))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(spec.describe(), file=sys.stderr)
    timeout = args.timeout
    if fault_plan is not None and timeout is None:
        # An injected hang needs a watchdog to trip; pick a bound well
        # above any smoke-grid cell but far below an injected hang.
        timeout = 20.0
    cache_dir = args.cache_dir or None
    progress, logger = _make_observability(args, label="jobs")
    store = None
    if args.resume:
        from repro.paper.store import ResultsStore

        store = ResultsStore(Path(args.out_dir) / "results_store.jsonl")
    stats = ReliabilityStats()
    try:
        report = run_sweep(spec, workers=args.jobs, cache_dir=cache_dir,
                           timeout=timeout, progress=progress, store=store,
                           logger=logger, fault_plan=fault_plan, stats=stats)
    except KeyboardInterrupt:
        _finish_observability(logger)
        if store is not None:
            # The runner already released our leases and closed the store
            # on a line boundary; everything recorded so far resumes.
            print(f"\ninterrupted: {store.stats.appended} cell(s) recorded in "
                  f"{store.path}; rerun with --resume to continue",
                  file=sys.stderr)
        else:
            print("\ninterrupted (no --resume store: completed cells were "
                  "not persisted)", file=sys.stderr)
        return 130
    _finish_observability(logger)
    # Reliability is stderr-only by design: report artifacts must stay
    # byte-identical however rough the run was (chaos tests pin this).
    print(stats.summary_line(spec.job_count()), file=sys.stderr)
    if store is not None:
        store.close()
        print(f"results store: {store.stats.appended} cell(s) appended, "
              f"{store.stats.hits} resumed from {store.path}", file=sys.stderr)

    stats = report.cache_stats
    if stats:
        if "plans_generated" in stats:
            print(f"checkpoint farm: {stats.get('plans_generated', 0)} shared "
                  f"warmup(s) planned, {stats.get('plans_reused', 0)} reused "
                  f"for {spec.job_count()} jobs", file=sys.stderr)
        else:
            print(f"trace cache: {stats.get('traces_generated', 0)} generated, "
                  f"{stats.get('traces_reused', 0)} reused for "
                  f"{spec.job_count()} jobs", file=sys.stderr)
    paths = report.save(args.out_dir)
    print(report.to_markdown())
    print(f"\nartifacts: {paths['markdown']}  {paths['csv']}  {paths['json']}",
          file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from repro.paper import run_paper

    def slice_progress(figure: str, label: str, job_count: int) -> None:
        print(f"figure {figure} [{label}]: {job_count} cell(s)",
              file=sys.stderr)

    progress, logger = _make_observability(args, label="cells")
    try:
        summary = run_paper(
            figures=tuple(args.figure) if args.figure else None,
            smoke=args.smoke,
            sample_period=args.sample_period,
            ipc_tolerance=args.ipc_tolerance,
            out_dir=args.out_dir,
            workers=args.jobs,
            seed=args.seed,
            timeout=args.timeout,
            progress=progress,
            slice_progress=None if args.quiet else slice_progress,
            store_path=args.store,
            logger=logger,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        _finish_observability(logger)
        print("\ninterrupted: completed cells are in the results store; "
              "rerun the same command to resume", file=sys.stderr)
        return 130
    _finish_observability(logger)
    print(summary.describe())
    print(f"report    : {summary.paths['report']}")
    return 1 if summary.failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.artifact).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read sweep artifact {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    report = SweepReport.from_dict(data)
    if args.format == "markdown":
        print(report.to_markdown())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_json())
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``repro store verify|stats|compact RESULTS.jsonl`` maintenance."""
    from repro.paper.store import ResultsStore

    path = Path(args.store_file)
    if args.action != "compact" and not path.exists():
        print(f"error: no results store at {path}", file=sys.stderr)
        return 2
    store = ResultsStore(path)
    if args.action == "verify":
        report = store.verify()
        print(json.dumps(report, indent=2, sort_keys=True))
        # Exit non-zero on damage so CI can gate on hygiene; duplicates
        # and stale leases are normal operation (compact cleans them).
        return 1 if report["corrupt_lines"] or report["torn_tail"] else 0
    if args.action == "stats":
        report = store.verify()
        torn = "yes" if report["torn_tail"] else "no"
        print(f"{report['records']} record(s), {report['unique_keys']} "
              f"unique key(s), {report['duplicate_keys']} duplicate(s), "
              f"{report['corrupt_lines']} corrupt line(s), torn tail: {torn}")
        print(f"{report['leases_live']} live lease(s), "
              f"{report['leases_stale']} stale, "
              f"{report['lease_lines']} lease line(s) on disk")
        return 0
    outcome = store.compact(keep_meta=args.keep_meta)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    return 0


def _gate_against_baseline(report, baseline_path: str, tolerance: float,
                           kinds: tuple[str, ...] = ()) -> int:
    try:
        baseline = BenchReport.load(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    regressions = compare_reports(report, baseline, tolerance=tolerance,
                                  kinds=list(kinds) or None)
    scope = f" [{','.join(kinds)} only]" if kinds else ""
    if regressions:
        print(f"\nperformance regressions vs baseline{scope}:", file=sys.stderr)
        for message in regressions:
            print(f"  {message}", file=sys.stderr)
        return 1
    print(f"\nno regressions vs {baseline_path}{scope} "
          f"(tolerance {tolerance * 100:.0f}%)", file=sys.stderr)
    return 0


def _bench_config(args: argparse.Namespace) -> BenchConfig:
    """The configuration ``repro bench`` runs (``ValueError`` on bad flags).

    The preset (``--smoke`` or the full suite) supplies every default; the
    ``--no-<flag>`` switches of :data:`~repro.bench.suite.TIERS` add to its
    skipped tiers.  A deliberately narrowed run (explicit ``--workloads``,
    ``--schemes`` or ``--max-ops`` without ``--smoke``) also skips the
    tiers that ignore the narrowing; the full suite and ``--smoke`` keep
    them so the committed artifact and the CI gate always carry the cases.
    """
    config = BenchConfig.smoke() if args.smoke else BenchConfig()
    skip = set(config.skip)
    skip.update(tier.kind for tier in TIERS if tier.flag is not None
                and getattr(args, "no_" + tier.flag.replace("-", "_")))
    if not args.smoke and (args.workloads or args.schemes
                           or args.max_ops is not None):
        fixed = [tier.kind for tier in TIERS if not tier.in_narrowed]
        skip.update(fixed)
        if not args.quiet:
            print("note: explicit --workloads/--schemes/--max-ops skip the "
                  f"fixed-scale {', '.join(fixed[:-1])} and {fixed[-1]} tiers; "
                  "run without them (or with --smoke) to include them",
                  file=sys.stderr)
    overrides = {"skip": skip}
    if args.workloads:
        overrides["workloads"] = tuple(args.workloads)
        overrides["sampled_workloads"] = tuple(args.workloads)
    if args.schemes:
        overrides["schemes"] = tuple(args.schemes)
    # None means "not passed": explicit --max-ops/--repeat always win.
    if args.max_ops is not None:
        overrides["max_ops"] = args.max_ops
    if args.repeat is not None:
        overrides["repeat"] = args.repeat
    return replace(config, **overrides)


def _cmd_bench(args: argparse.Namespace) -> int:
    # Gate arguments are checked before anything runs: a typo must not
    # turn a gate into a pass, nor fail only after the whole suite ran.
    if not 0 <= args.tolerance < 1:
        print(f"error: --tolerance must be in [0, 1), got {args.tolerance:g}",
              file=sys.stderr)
        return 2
    kinds = [tier.kind for tier in TIERS]
    bad = [kind for kind in args.gate_kinds if kind not in kinds]
    if bad:
        print(f"error: unknown --gate-kinds value(s) {', '.join(bad)}; "
              f"known: {', '.join(kinds)}", file=sys.stderr)
        return 2
    if args.check:
        if not args.baseline:
            print("error: --check requires --baseline", file=sys.stderr)
            return 2
        try:
            report = BenchReport.load(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read artifact {args.check}: {exc}", file=sys.stderr)
            return 2
        return _gate_against_baseline(report, args.baseline, args.tolerance,
                                      kinds=args.gate_kinds)
    try:
        config = _bench_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    progress = None
    if not args.quiet:
        progress = lambda name: print(f"bench: {name}", file=sys.stderr)  # noqa: E731
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            report = run_benchmarks(config, progress=progress)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception as exc:
        print(f"error: benchmark failed: {exc}", file=sys.stderr)
        return 1
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        # The full profile rides along as a .pstats artifact so hotspots
        # can be explored offline (snakeviz, pstats.Stats) instead of
        # being limited to the printed top 20.
        pstats_path = Path(args.out or "BENCH_core.json").with_suffix(".pstats")
        stats.dump_stats(str(pstats_path))
        print(f"profile artifact: {pstats_path}", file=sys.stderr)
    print(report.to_text())
    if args.out and args.profile:
        # Profiled wall times are inflated by instrumentation; never let
        # them become a committed artifact or gate input.
        print("note: --profile run not saved (timings are profiler-inflated); "
              "drop --profile to write an artifact", file=sys.stderr)
    elif args.out:
        # Never clobber the baseline being gated against: `bench --smoke
        # --baseline BENCH_core.json` with the default --out would first
        # overwrite the committed artifact with smoke numbers and then
        # compare the report against its own copy (a gate that can never
        # fail).  Skip the write and keep the comparison honest.
        if args.baseline and Path(args.out).resolve() == Path(args.baseline).resolve():
            print(f"note: not overwriting baseline {args.baseline}; "
                  "pass a different --out to save this run", file=sys.stderr)
        else:
            path = report.save(args.out)
            print(f"\nartifact: {path}", file=sys.stderr)

    if args.baseline:
        if args.profile:
            print("note: skipping baseline gate (profiled timings are not "
                  "comparable)", file=sys.stderr)
            return 0
        return _gate_against_baseline(report, args.baseline, args.tolerance,
                                      kinds=args.gate_kinds)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the HTTP sweep service (docs/service.md)."""
    from repro.service import ServiceServer, SweepService

    service = SweepService(args.store, workers=args.jobs,
                           cache_dir=args.cache_dir or None,
                           max_concurrent=args.concurrent, quota=args.quota,
                           queue_limit=args.queue_limit)
    server = ServiceServer(service, host=args.host, port=args.port)

    def ready(port: int) -> None:
        # The readiness line scripted sessions (and humans) wait for; on
        # stdout and flushed so `repro serve &` pipelines see it promptly.
        print(f"serving on http://{args.host}:{port}", flush=True)
        print(f"results store: {args.store}", file=sys.stderr)

    try:
        server.serve(ready=ready)
    except KeyboardInterrupt:
        print("\nshutting down (running sweeps are cancelled; the store "
              "resumes them on the next submission)", file=sys.stderr)
        return 130
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        service.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also installed as the ``repro`` console script)."""
    args = _build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "trace": _cmd_trace,
                "sweep": _cmd_sweep, "paper": _cmd_paper,
                "report": _cmd_report, "store": _cmd_store,
                "bench": _cmd_bench, "serve": _cmd_serve}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
