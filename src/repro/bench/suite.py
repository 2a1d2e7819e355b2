"""Benchmark case definitions and the suite runner.

The suite is the :data:`TIERS` table at the end of this module: one row per
tier, in run order, naming the tier's kind, its ``repro bench --no-<flag>``
switch, whether a narrowed run or ``--smoke`` runs it, and the two small
functions that list and run its cases.  The comment above the table is the
one description of the tiers.  :func:`run_benchmarks` is a loop over it.

Wall time per case is best-of-``repeat`` (scheduler noise only ever adds
time).  The clock is injectable for unit tests.
"""

from __future__ import annotations

import gc
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

from repro.bench.report import BenchReport, BenchResult, default_meta
from repro.experiments.grid import SCHEME_PRESETS, SweepSpec, scheme_config
from repro.experiments.report import build_report
from repro.experiments.runner import run_jobs, run_sweep
from repro.isa.functional import FunctionalCore
from repro.pipeline.core import simulate_trace
from repro.pipeline.sampling import SampledSimulator, SamplingConfig
from repro.workloads import DEFAULT_SUITE, build_workload, generate_trace, list_workloads

#: Workloads the default suite times: a sharing-heavy one, a spill/STLF one,
#: a branchy one, a pointer chase and a streaming kernel -- small enough to
#: finish in seconds, diverse enough that a hot-path regression in any
#: pipeline stage moves at least one of them.
DEFAULT_BENCH_WORKLOADS: tuple[str, ...] = (
    "move_chain", "spill_reload", "branchy", "load_load", "stride_stream",
)

#: Tracker schemes the default suite times (the paper's headline scheme, the
#: unlimited reference, a walk-recovery scheme and the no-sharing baseline).
DEFAULT_BENCH_SCHEMES: tuple[str, ...] = ("baseline", "isrb", "refcount", "matrix")

#: Repository root, used to resolve the decode tier's sample binary so the
#: bench suite works from any working directory.
_REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class BenchConfig:
    """What to benchmark and how hard.

    The :meth:`smoke` preset shrinks the workloads, schemes, ``max_ops``
    and ``repeat`` so the suite finishes in seconds on CI, and skips
    ``sampled_long``.  It keeps every tier's own sizes below: those cases
    are cheap or fixed-scale, and keeping them keeps each same-named case
    comparable between a smoke run and the committed full-suite
    BENCH_core.json.  The comment above :data:`TIERS` says what each tier
    does with its fields.
    """

    workloads: tuple[str, ...] = DEFAULT_BENCH_WORKLOADS
    schemes: tuple[str, ...] = DEFAULT_BENCH_SCHEMES
    max_ops: int = 20_000
    seed: int = 1
    repeat: int = 2
    #: Kinds of the :data:`TIERS` this run leaves out: any iterable of
    #: the kinds that have a ``--no-<flag>`` switch, stored as a frozenset.
    skip: frozenset[str] = frozenset()
    sweep_workloads: tuple[str, ...] = ("spill_reload", "move_chain")
    sweep_schemes: tuple[str, ...] = ("isrb", "refcount_checkpoint")
    ff_max_ops: int = 20_000
    #: () = the default suite.
    sampled_workloads: tuple[str, ...] = ()
    sampled_max_ops: int = 20_000
    sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(
        period=5_000, window=1_200, warmup=500, cooldown=300))
    long_workloads: tuple[str, ...] = ("long_phase_mix", "long_stride_drift")
    long_max_ops: int = 1_000_000
    long_sampling: SamplingConfig = field(default_factory=SamplingConfig)
    decode_binary: str = "examples/rv32i/checksum.bin"
    #: Source instructions the sample binary is replicated to.
    decode_target_insns: int = 20_000
    farm_workload: str = "long_phase_mix"
    farm_schemes: tuple[str, ...] = ("isrb", "refcount", "mit", "matrix")
    farm_max_ops: int = 1_000_000
    farm_sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(
        period=250_000, window=800, warmup=250, cooldown=150))
    adaptive_workload: str = "long_phase_mix"
    adaptive_max_ops: int = 200_000
    #: The fixed geometry, whose achieved accuracy the adaptive run targets.
    adaptive_sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(
        period=20_000, window=1_200, warmup=500, cooldown=300))

    def __post_init__(self) -> None:
        object.__setattr__(self, "skip", frozenset(self.skip))
        kinds = [tier.kind for tier in TIERS if tier.flag is not None]
        bad = sorted(self.skip.difference(kinds))
        if bad:
            raise ValueError(f"tier(s) {bad} cannot be skipped; skippable: {kinds}")
        if self.max_ops < 1 or self.ff_max_ops < 1 or self.sampled_max_ops < 1 \
                or self.long_max_ops < 1 or self.adaptive_max_ops < 1:
            raise ValueError("max_ops values must be >= 1")
        if self.decode_target_insns < 1:
            raise ValueError("decode_target_insns must be >= 1")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        known = list_workloads()
        bad = [name for name in (*self.workloads, *self.sweep_workloads,
                                 *self.sampled_workloads, *self.long_workloads,
                                 self.farm_workload, self.adaptive_workload)
               if name not in known]
        if bad:
            raise ValueError(f"unknown workload(s) {bad}; known: {known}")
        bad = [name for name in (*self.schemes, *self.sweep_schemes,
                                 *self.farm_schemes)
               if name != "baseline" and name not in SCHEME_PRESETS]
        if bad:
            raise ValueError(
                f"unknown scheme(s) {bad}; known: baseline, {list(SCHEME_PRESETS)}")

    @classmethod
    def smoke(cls) -> "BenchConfig":
        """The reduced CI gate configuration (a few seconds end to end)."""
        return cls(
            workloads=("move_chain", "spill_reload"),
            schemes=("baseline", "isrb"),
            max_ops=4_000,
            repeat=1,
            sampled_workloads=("move_chain", "spill_reload"),
            skip=frozenset(tier.kind for tier in TIERS if not tier.in_smoke),
        )

    def resolved_sampled_workloads(self) -> tuple[str, ...]:
        """Workloads of the sampled accuracy tier (default: the full suite)."""
        return self.sampled_workloads or tuple(DEFAULT_SUITE)

    def tiers(self) -> tuple["Tier", ...]:
        """The tiers this configuration runs, in run order."""
        return tuple(tier for tier in TIERS if tier.kind not in self.skip)


@dataclass
class _Bench:
    """What the cases of one run share: the configuration, the clock, and
    the traces the trace_gen tier built (the sim tier replays them, so it
    times the timing model alone)."""

    config: BenchConfig
    clock: Callable[[], float] = time.perf_counter
    traces: dict = field(default_factory=dict)

    def best_of(self, repeat: int, thunk) -> tuple[float, object]:
        """The best wall time of ``repeat`` calls of ``thunk``, and its last value."""
        best = value = None
        for _ in range(repeat):
            start = self.clock()
            value = thunk()
            elapsed = self.clock() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, value


# -- the tiers: each function times one case and returns its BenchResult fields ----


def _trace_gen(bench: _Bench, workload: str) -> dict:
    config = bench.config
    wall, trace = bench.best_of(config.repeat, lambda: generate_trace(
        workload, max_ops=config.max_ops, seed=config.seed))
    bench.traces[workload] = trace
    return {"ops": len(trace), "wall_seconds": wall}


def _sim(bench: _Bench, scheme: str, workload: str) -> dict:
    core_config = scheme_config(scheme)
    trace = bench.traces[workload]
    wall, result = bench.best_of(bench.config.repeat,
                                 lambda: simulate_trace(trace, core_config))
    return {"ops": result.instructions, "wall_seconds": wall,
            "cycles": result.cycles,
            "detail": {"ipc": result.ipc, "variant": core_config.variant_name(),
                       "skipped_cycles": result.stat("skipped_cycles"),
                       "events_per_cycle": result.stat("events_per_cycle", 1.0)}}


def _ff(bench: _Bench, workload: str) -> dict:
    config = bench.config
    image = build_workload(workload, seed=config.seed)
    wall, retired = bench.best_of(config.repeat, lambda: FunctionalCore.from_image(
        image).fast_forward(config.ff_max_ops))
    return {"ops": retired, "wall_seconds": wall}


def _decode(bench: _Bench, stem: str) -> dict:
    # The sample binary is tiny, so decode+lower is repeated to a fixed
    # instruction budget; ops counts source instructions, not the (larger)
    # lowered micro-op count.
    from repro.isa.riscv import decode_all, load_binary, lower

    config = bench.config
    binary = load_binary(_REPO_ROOT / config.decode_binary)
    insns = sum(1 for word in decode_all(binary.text) if word is not None)
    reps = max(1, -(-config.decode_target_insns // max(insns, 1)))

    def run_decode():
        program = None
        for _ in range(reps):
            decode_all(binary.text)
            program = lower(binary, name=stem)
        return program
    wall, program = bench.best_of(config.repeat, run_decode)
    return {"ops": reps * insns, "wall_seconds": wall,
            "detail": {"insns": insns, "reps": reps,
                       "uops_per_insn": len(program) / insns if insns else 0.0}}


def _sampled_vs_full(bench: _Bench, workload: str, max_ops: int,
                     sampling: SamplingConfig) -> dict:
    # Timed once per case: the full-detail reference run is exactly the
    # cost sampling removes.
    seed = bench.config.seed
    isrb_config = scheme_config("isrb")
    full_wall, full = bench.best_of(1, lambda: simulate_trace(
        generate_trace(workload, max_ops=max_ops, seed=seed), isrb_config))
    simulator = SampledSimulator(isrb_config, sampling)
    wall, sampled = bench.best_of(1, lambda: simulator.run_workload(
        workload, max_ops=max_ops, seed=seed))
    return {"ops": sampled.instructions, "wall_seconds": wall,
            "cycles": sampled.cycles,
            "detail": {
                "ipc_full": full.ipc,
                "ipc_sampled": sampled.ipc,
                "ipc_ratio": sampled.ipc / full.ipc,
                "speedup": full_wall / wall if wall > 0 else 0.0,
                "full_wall_seconds": full_wall,
                "windows": sampled.stat("sampling_windows"),
            }}


def _sweep_farm(bench: _Bench, workload: str) -> dict:
    config = bench.config
    spec = SweepSpec(
        schemes=config.farm_schemes,
        workloads=(workload,),
        max_ops=config.farm_max_ops,
        seed=config.seed,
        sample_period=config.farm_sampling.period,
        sample_window=config.farm_sampling.window,
        sample_warmup=config.farm_sampling.warmup,
        sample_cooldown=config.farm_sampling.cooldown,
    )
    # The independent run is exactly the redundant work the farm removes,
    # so its wall time is the honest denominator.  The two sides are timed
    # in interleaved pairs (farm, independent, farm, independent, ...) so
    # ambient load drift hits both equally and the reported ratio stays
    # stable; each side keeps its best wall time, like every other
    # repeated case.  Earlier tiers leave a large live
    # heap (cached traces, sampled runs) whose GC scans tax the
    # allocation-heavy planning pass disproportionately, so the
    # pre-existing heap is frozen out of collection for the duration.
    gc.collect()
    gc.freeze()
    try:
        farm_walls, independent_walls = [], []
        for _ in range(config.repeat):
            wall, farm = bench.best_of(
                1, lambda: run_sweep(spec, workers=1, cache_dir=None))
            farm_walls.append(wall)
            wall, independent = bench.best_of(
                1, lambda: build_report(run_jobs(spec.expand()), meta=farm.meta))
            independent_walls.append(wall)
    finally:
        gc.unfreeze()
    if farm.to_markdown() != independent.to_markdown():
        raise RuntimeError(
            "checkpoint-farm sweep disagrees with independent warming; "
            "the shared-warmup invariant is broken")
    farm_wall, independent_wall = min(farm_walls), min(independent_walls)
    return {"ops": spec.job_count(), "wall_seconds": farm_wall,
            "detail": {
                "speedup": independent_wall / farm_wall if farm_wall > 0 else 0.0,
                "independent_wall_seconds": independent_wall,
                "schemes": list(config.farm_schemes),
                "failures": len(farm.failures),
            }}


def _adaptive(bench: _Bench, workload: str) -> dict:
    # The fixed run comes first; the error-budget run then targets the
    # relative CI half-width the fixed run achieved, with the fixed run's
    # window count as its ceiling, so "detailed micro-ops saved >= 0" holds
    # structurally and any positive saving is the stopping rule quitting
    # early at the same confidence.
    from repro.common.statistics import weighted_mean_std
    from repro.pipeline.sampling import window_samples

    config = bench.config
    isrb_config = scheme_config("isrb")
    baseline_config = scheme_config("baseline")
    fixed_sim = SampledSimulator(isrb_config, config.adaptive_sampling)
    fixed_wall, fixed = bench.best_of(1, lambda: fixed_sim.run_workload(
        workload, max_ops=config.adaptive_max_ops, seed=config.seed))
    achieved = fixed.stats.get("sampling_ipc_rel_ci95")
    tolerance = min(max(achieved if achieved is not None else 0.05, 0.001), 0.9)
    fixed_windows = int(fixed.stat("sampling_windows"))
    budget = replace(config.adaptive_sampling, tolerance=tolerance,
                     min_windows=2, max_windows=max(fixed_windows, 2))
    adaptive_sim = SampledSimulator(isrb_config, budget)
    image = build_workload(workload, seed=config.seed)

    def run_adaptive():
        plan = adaptive_sim.plan(image, workload, config.adaptive_max_ops)
        return plan, adaptive_sim.execute_plan(plan)
    adaptive_wall, (plan, adaptive_result) = bench.best_of(1, run_adaptive)

    def detailed_ops(result):
        return int(result.stat("sampled_instructions")
                   + result.stat("warmup_instructions")
                   + result.stat("cooldown_instructions"))
    ops_fixed = detailed_ops(fixed)
    ops_adaptive = detailed_ops(adaptive_result)

    # Paired speedup deltas: one frozen plan replayed under both machines
    # means window i covers identical instructions on each side, so the
    # per-window ISRB/baseline IPC ratios difference out the program-phase
    # variance the two runs share.  The unpaired term is the delta-method
    # variance the same windows would give if the two sides were sampled
    # independently.
    base_windows = window_samples(plan, baseline_config)
    isrb_windows = window_samples(plan, isrb_config)
    weights = [float(ops) for ops, _ in base_windows]
    base_ipcs = [ops / cycles for ops, cycles in base_windows]
    isrb_ipcs = [ops / cycles for ops, cycles in isrb_windows]
    ratios = [i / b for i, b in zip(isrb_ipcs, base_ipcs)]
    ratio_mean, ratio_std = weighted_mean_std(ratios, weights)
    base_mean, base_std = weighted_mean_std(base_ipcs, weights)
    isrb_mean, isrb_std = weighted_mean_std(isrb_ipcs, weights)
    paired_var = (ratio_std or 0.0) ** 2
    unpaired_var = (ratio_mean ** 2) * (
        ((isrb_std or 0.0) / isrb_mean) ** 2
        + ((base_std or 0.0) / base_mean) ** 2)

    return {"ops": adaptive_result.instructions, "wall_seconds": adaptive_wall,
            "cycles": adaptive_result.cycles,
            "detail": {
                "tolerance": tolerance,
                "stop_reason": plan.stop_reason,
                "windows_fixed": fixed_windows,
                "windows_adaptive": int(adaptive_result.stat("sampling_windows")),
                "detailed_ops_fixed": ops_fixed,
                "detailed_ops_adaptive": ops_adaptive,
                "detailed_ops_saved": ops_fixed - ops_adaptive,
                "ops_saved_ratio": (ops_fixed / ops_adaptive
                                    if ops_adaptive else 0.0),
                "probe_ops": plan.probe_detailed_ops,
                "ipc_fixed": fixed.stat("sampling_ipc_estimate"),
                "ipc_adaptive": adaptive_result.stat("sampling_ipc_estimate"),
                "rel_ci_fixed": achieved,
                "rel_ci_adaptive":
                    adaptive_result.stats.get("sampling_ipc_rel_ci95"),
                "paired_delta_var": paired_var,
                "unpaired_delta_var": unpaired_var,
                "fixed_wall_seconds": fixed_wall,
            }}


def _paper(bench: _Bench, _smoke: str) -> dict:
    # A fresh scratch directory per repeat, so every run simulates every
    # cell (no store resume).
    from repro.paper import run_paper

    def run_paper_smoke():
        with tempfile.TemporaryDirectory(prefix="repro-bench-paper-",
                                         ignore_cleanup_errors=True) as scratch:
            return run_paper(smoke=True, out_dir=scratch, seed=bench.config.seed)
    wall, summary = bench.best_of(bench.config.repeat, run_paper_smoke)
    return {"ops": summary.total_cells, "wall_seconds": wall,
            "detail": {"figures": len(summary.figure_data),
                       "cells": summary.total_cells,
                       "failures": summary.failures}}


def _sweep(bench: _Bench, _small: str) -> dict:
    config = bench.config
    spec = SweepSpec(
        schemes=config.sweep_schemes,
        workloads=config.sweep_workloads,
        max_ops=min(config.max_ops, 4_000),
        seed=config.seed,
    )
    wall, report = bench.best_of(
        1, lambda: run_sweep(spec, workers=1, cache_dir=None))
    return {"ops": spec.job_count(), "wall_seconds": wall,
            "detail": {"failures": len(report.failures),
                       "variants": list(report.variants)}}


@dataclass(frozen=True)
class Tier:
    """One row of :data:`TIERS`."""

    kind: str
    #: ``cases(config)``: the key of each case, in run order; the case is
    #: named ``<kind>/<key parts joined by '/'>``.
    cases: Callable[[BenchConfig], Iterable[tuple[str, ...]]]
    #: ``run(bench, *key)``: time one case and return its
    #: :class:`~repro.bench.report.BenchResult` fields but name and kind.
    run: Callable[..., dict]
    #: ``repro bench --no-<flag>`` skips the tier; ``help`` is that flag's help.
    flag: str | None = None
    help: str | None = None
    #: Whether a run narrowed by explicit ``--workloads``/``--schemes``/
    #: ``--max-ops`` keeps the tier (the fixed-scale tiers would ignore
    #: the narrowing and dominate its runtime).
    in_narrowed: bool = True
    #: Whether the ``--smoke`` preset (:meth:`BenchConfig.smoke`) runs it.
    in_smoke: bool = True


def _each_workload(config: BenchConfig) -> list[tuple[str, ...]]:
    return [(workload,) for workload in config.workloads]


#: The ten tiers, in run order, mirroring where simulator time goes:
#:
#: * ``trace_gen/<workload>`` -- the functional executor, in dynamic
#:   micro-ops generated per second, one case per benchmarked workload;
#: * ``sim/<scheme>/<workload>`` -- the cycle-level core, one case per
#:   (tracker scheme, workload) cell, replaying the trace_gen trace so only
#:   the timing model is measured, in committed micro-ops and simulated
#:   cycles per second.  ``baseline`` is the no-sharing machine; every real
#:   scheme runs at its preset sizing with move elimination and SMB; the
#:   detail records ``skipped_cycles`` and ``events_per_cycle`` (the
#:   event-driven loop's effectiveness);
#: * ``ff/<workload>`` -- the compiled functional fast-forward core
#:   (:class:`~repro.isa.functional.FunctionalCore`), the fast half of the
#:   two-speed engine, in retired micro-ops per second;
#: * ``decode/<binary>`` -- the RISC-V frontend (RV32I decode + lowering
#:   into the micro-op ISA) on the checked-in sample binary, replicated to
#:   a fixed instruction budget, in source instructions per second;
#: * ``sampled/<workload>`` -- two-speed sampled simulation end to end
#:   (by default over the default suite), with a full-detail reference run
#:   of the same length; the detail records the sampled/full IPC ratio and wall-clock
#:   speedup, the summary their geomeans (``sampled_ipc_ratio_geomean``,
#:   ``sampled_speedup_geomean``: the sampling-error acceptance numbers);
#: * ``sampled_long/<workload>`` -- the >=1M-micro-op workloads
#:   (``long_phase_mix``, ``long_stride_drift``) that are only tractable
#:   under sampling, again with a one-shot full-detail reference for the
#:   speedup figure;
#: * ``sweep_farm/<workload>`` -- a multi-scheme sampled sweep run with the
#:   shared-warmup checkpoint farm and again with per-scheme independent
#:   warming; the results are verified identical and the detail records the
#:   wall-clock speedup, the summary its geomean
#:   (``sweep_farm_speedup_geomean``: the farm acceptance number);
#: * ``adaptive/<workload>`` -- error-budget sampling against the fixed
#:   geometry at the accuracy the fixed run *achieved*: the detail records
#:   the detailed micro-ops saved at equal tolerance plus the
#:   paired-vs-unpaired speedup-delta variance from replaying one frozen
#:   plan (matched window offsets) under the baseline and ISRB machines;
#: * ``paper/smoke`` -- the ``repro paper --smoke`` pipeline end to end into
#:   a scratch directory (figure grids, results store, SVG and report
#:   rendering), in grid cells per second;
#: * ``sweep/small`` -- an end-to-end :func:`~repro.experiments.runner.run_sweep`
#:   over a tiny matrix (grid expansion, in-process jobs, report
#:   aggregation), in jobs per second.
#:
#: A case whose detail counts ``failures`` fails the run.
TIERS: tuple[Tier, ...] = (
    Tier("trace_gen", _each_workload, _trace_gen),
    Tier("sim", lambda config: [(scheme, workload) for scheme in config.schemes
                                for workload in config.workloads], _sim),
    Tier("ff", _each_workload, _ff),
    Tier("decode", lambda config: [(Path(config.decode_binary).stem,)], _decode,
         flag="decode", help="skip the RV32I decode+lower frontend tier"),
    Tier("sampled",
         lambda config: [(workload,) for workload
                         in config.resolved_sampled_workloads()],
         lambda bench, workload: _sampled_vs_full(
             bench, workload, bench.config.sampled_max_ops, bench.config.sampling),
         flag="sampled", help="skip the sampled-vs-full accuracy tier"),
    Tier("sampled_long",
         lambda config: [(workload,) for workload in config.long_workloads],
         lambda bench, workload: _sampled_vs_full(
             bench, workload, bench.config.long_max_ops, bench.config.long_sampling),
         flag="long", help="skip the >=1M-op long-horizon tier", in_smoke=False),
    Tier("sweep_farm", lambda config: [(config.farm_workload,)], _sweep_farm,
         flag="farm-sweep", help="skip the checkpoint-farm sweep tier",
         in_narrowed=False),
    Tier("adaptive", lambda config: [(config.adaptive_workload,)], _adaptive,
         flag="adaptive", help="skip the adaptive (error-budget) sampling tier",
         in_narrowed=False),
    Tier("paper", lambda config: [("smoke",)], _paper,
         flag="paper", help="skip the paper-figure pipeline tier",
         in_narrowed=False),
    Tier("sweep", lambda config: [("small",)], _sweep,
         flag="sweep", help="skip the end-to-end sweep tier"),
)


def run_benchmarks(config: BenchConfig | None = None, clock=None,
                   progress=None) -> BenchReport:
    """Run every case of the configuration's tiers and return the report.

    ``clock`` overrides the wall-clock source (tests inject a fake);
    ``progress(case_name)`` is called before each case starts.
    """
    config = config or BenchConfig()
    bench = _Bench(config, clock or time.perf_counter)
    report = BenchReport(meta=default_meta(
        max_ops=config.max_ops,
        seed=config.seed,
        repeat=config.repeat,
        workloads=list(config.workloads),
        schemes=list(config.schemes),
    ))
    for tier in config.tiers():
        for key in tier.cases(config):
            name = "/".join((tier.kind, *key))
            if progress is not None:
                progress(name)
            result = BenchResult(name=name, kind=tier.kind, **tier.run(bench, *key))
            report.results.append(result)
            failures = result.detail.get("failures")
            if failures:
                raise RuntimeError(f"bench case {name} had {failures} failed cell(s)")
    return report
