"""Benchmark case definitions and the suite runner.

The suite has ten tiers, mirroring where simulator time actually goes:

* ``trace_gen/<workload>`` -- the functional executor, one case per
  benchmarked workload;
* ``sim/<scheme>/<workload>`` -- the cycle-level core, one case per
  (tracker scheme, workload) cell, replaying a pre-generated trace so only
  the timing model is measured;
* ``ff/<workload>`` -- the compiled functional fast-forward core
  (:class:`~repro.isa.functional.FunctionalCore`), the fast half of the
  two-speed engine;
* ``sampled/<workload>`` -- two-speed sampled simulation end to end, with
  a full-detail reference run of the same length; the case detail records
  the sampled/full IPC ratio and wall-clock speedup (the sampling-error
  acceptance numbers);
* ``sampled_long/<workload>`` -- the long-horizon (>=1M micro-op)
  workloads that are only tractable under sampling, again with a one-shot
  full-detail reference for the speedup figure;
* ``sweep_farm/<workload>`` -- a multi-scheme sampled sweep run with the
  shared-warmup checkpoint farm and again with per-scheme independent
  warming; the case detail records the wall-clock speedup (results are
  identical by construction, and the tier verifies that);
* ``adaptive/<workload>`` -- error-budget sampling vs the fixed geometry
  at the accuracy the fixed run *achieved*: the case detail records the
  detailed micro-ops saved at equal tolerance plus the paired-vs-unpaired
  speedup-delta variance from replaying one frozen plan (matched window
  offsets) under the baseline and ISRB machines;
* ``decode/<binary>`` -- the RISC-V frontend (RV32I decode + lowering into
  the micro-op ISA) on the checked-in sample binary, replicated to a fixed
  instruction budget, measured in source instructions/second;
* ``sweep/small`` -- an end-to-end :func:`~repro.experiments.runner.run_sweep`
  over a tiny matrix (grid expansion + trace cache + in-process pool +
  report aggregation), measured in jobs/second;
* ``paper/smoke`` -- the paper-figure pipeline (``repro paper --smoke``)
  end to end into a scratch directory: figure grids, results store, SVG
  and report rendering, measured in grid cells/second.  Guards the
  acceptance bar that the smoke deliverable stays CI-cheap.

Wall time per case is best-of-``repeat`` (scheduler noise only ever adds
time).  The clock is injectable for unit tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

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

    ``smoke`` presets (see :meth:`smoke`) shrink everything so the suite
    finishes in a few seconds on CI while still touching every tier.
    """

    workloads: tuple[str, ...] = DEFAULT_BENCH_WORKLOADS
    schemes: tuple[str, ...] = DEFAULT_BENCH_SCHEMES
    max_ops: int = 20_000
    seed: int = 1
    repeat: int = 2
    sweep: bool = True
    sweep_workloads: tuple[str, ...] = ("spill_reload", "move_chain")
    sweep_schemes: tuple[str, ...] = ("isrb", "refcount_checkpoint")
    # -- the two-speed (sampled) tiers ---------------------------------------------
    #: Fast-forward tier trace length.  Deliberately *not* reduced by the
    #: smoke preset: ff and sampled cases are cheap enough to run at full
    #: scale everywhere, which keeps same-named cases comparable between a
    #: smoke run and the committed full-suite BENCH_core.json.
    ff_max_ops: int = 20_000
    #: Master switch of the sampled-vs-full accuracy tier.
    sampled: bool = True
    #: Sampled-vs-full accuracy tier: every workload here is run once in
    #: full detail and once sampled at the same length; () = default suite.
    sampled_workloads: tuple[str, ...] = ()
    sampled_max_ops: int = 20_000
    sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(
        period=5_000, window=1_200, warmup=500, cooldown=300))
    #: Long-horizon tier: >=1M-op workloads, one full-detail reference run
    #: (timed once -- it is the expensive thing sampling replaces) plus the
    #: sampled run; () disables the tier (the smoke preset does).
    long_workloads: tuple[str, ...] = ("long_phase_mix", "long_stride_drift")
    long_max_ops: int = 1_000_000
    long_sampling: SamplingConfig = field(default_factory=SamplingConfig)
    # -- the RISC-V frontend (decode) tier ---------------------------------------------
    #: Times RV32I decode + lowering of the checked-in sample binary,
    #: replicated to ``decode_target_insns`` source instructions.  Cheap and
    #: fixed-scale, so the smoke preset keeps it and the case stays
    #: comparable between a smoke run and the committed BENCH_core.json.
    decode: bool = True
    decode_binary: str = "examples/rv32i/checksum.bin"
    decode_target_insns: int = 20_000
    # -- the checkpoint-farm sweep tier ----------------------------------------------
    #: A multi-scheme sampled sweep on one workload, run twice: with the
    #: shared-warmup checkpoint farm and with per-scheme independent
    #: warming.  The case detail records the wall-clock speedup (results
    #: are identical by construction).  Deliberately not reduced by the
    #: smoke preset, like the other sampled tiers, so the case stays
    #: comparable between a smoke run and the committed BENCH_core.json.
    farm_sweep: bool = True
    farm_workload: str = "long_phase_mix"
    farm_schemes: tuple[str, ...] = ("isrb", "refcount", "mit", "matrix")
    farm_max_ops: int = 1_000_000
    farm_sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(
        period=250_000, window=800, warmup=250, cooldown=150))
    # -- the adaptive (error-budget) sampling tier --------------------------------------
    #: One workload sampled twice: the fixed reference geometry below, then
    #: error-budget mode at the relative CI half-width the fixed run
    #: *achieved* (equal accuracy) with the fixed run's window count as the
    #: adaptive ceiling -- which makes "detailed ops saved >= 0"
    #: structural.  The case also replays the frozen adaptive plan under
    #: the baseline and ISRB machines to measure the paired
    #: (matched-offset) speedup-delta variance against the unpaired
    #: estimator.  Fixed-scale like the farm tier: not reduced by the
    #: smoke preset, so the case stays comparable between a smoke run and
    #: the committed BENCH_core.json.
    adaptive: bool = True
    adaptive_workload: str = "long_phase_mix"
    adaptive_max_ops: int = 200_000
    adaptive_sampling: SamplingConfig = field(default_factory=lambda: SamplingConfig(
        period=20_000, window=1_200, warmup=500, cooldown=300))
    # -- the paper-figure pipeline tier ------------------------------------------------
    #: Time ``run_paper(smoke=True)`` end to end (fresh store, scratch
    #: output).  Like the other fixed-scale tiers it is *not* reduced by
    #: the smoke preset: the smoke grid is already its CI-sized form, so
    #: the case stays comparable between a smoke run and the committed
    #: BENCH_core.json.
    paper: bool = True

    def __post_init__(self) -> None:
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
            long_workloads=(),
        )

    def resolved_sampled_workloads(self) -> tuple[str, ...]:
        """Workloads of the sampled accuracy tier (default: the full suite)."""
        return self.sampled_workloads or tuple(DEFAULT_SUITE)


@dataclass
class _Timer:
    """Best-of-N stopwatch around a thunk."""

    clock: object = field(default=time.perf_counter)

    def best_of(self, repeat: int, thunk) -> tuple[float, object]:
        best = None
        value = None
        for _ in range(repeat):
            start = self.clock()
            value = thunk()
            elapsed = self.clock() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, value


def run_benchmarks(config: BenchConfig | None = None, clock=None,
                   progress=None) -> BenchReport:
    """Run the benchmark suite and return its report.

    ``clock`` overrides the wall-clock source (tests inject a fake);
    ``progress(case_name)`` is called before each case starts.
    """
    config = config or BenchConfig()
    timer = _Timer(clock or time.perf_counter)
    report = BenchReport(meta=default_meta(
        max_ops=config.max_ops,
        seed=config.seed,
        repeat=config.repeat,
        workloads=list(config.workloads),
        schemes=list(config.schemes),
    ))

    # Tier 1: trace generation (the functional executor), and keep the
    # traces so the simulation tier measures only the timing model.
    traces = {}
    for workload in config.workloads:
        name = f"trace_gen/{workload}"
        if progress is not None:
            progress(name)
        wall, trace = timer.best_of(
            config.repeat,
            lambda workload=workload: generate_trace(
                workload, max_ops=config.max_ops, seed=config.seed))
        traces[workload] = trace
        report.results.append(BenchResult(
            name=name, kind="trace_gen", ops=len(trace), wall_seconds=wall))

    # Tier 2: cycle-level simulation per (scheme, workload).
    for scheme in config.schemes:
        core_config = scheme_config(scheme)
        for workload in config.workloads:
            name = f"sim/{scheme}/{workload}"
            if progress is not None:
                progress(name)
            trace = traces[workload]
            wall, result = timer.best_of(
                config.repeat, lambda trace=trace: simulate_trace(trace, core_config))
            report.results.append(BenchResult(
                name=name, kind="sim", ops=result.instructions, wall_seconds=wall,
                cycles=result.cycles,
                detail={"ipc": result.ipc, "variant": core_config.variant_name(),
                        "skipped_cycles": result.stat("skipped_cycles"),
                        "events_per_cycle": result.stat("events_per_cycle", 1.0)}))

    # Tier 3: the compiled functional fast-forward core (no trace, no ops).
    for workload in config.workloads:
        name = f"ff/{workload}"
        if progress is not None:
            progress(name)
        image = build_workload(workload, seed=config.seed)
        retired = 0

        def run_ff(image=image):
            nonlocal retired
            retired = FunctionalCore.from_image(image).fast_forward(config.ff_max_ops)
            return retired
        wall, _ = timer.best_of(config.repeat, run_ff)
        report.results.append(BenchResult(
            name=name, kind="ff", ops=retired, wall_seconds=wall))

    # Tier 3b: the RISC-V frontend -- RV32I decode + lowering into the
    # micro-op ISA, in source instructions per second.  The sample binary is
    # tiny, so decode+lower is repeated to a fixed instruction budget; ops
    # counts source instructions, not the (larger) lowered micro-op count.
    if config.decode:
        from repro.isa.riscv import decode_all, load_binary, lower

        binary_path = Path(config.decode_binary)
        if not binary_path.is_absolute():
            binary_path = _REPO_ROOT / binary_path
        name = f"decode/{binary_path.stem}"
        if progress is not None:
            progress(name)
        binary = load_binary(binary_path)
        insns = sum(1 for word in decode_all(binary.text) if word is not None)
        reps = max(1, -(-config.decode_target_insns // max(insns, 1)))

        def run_decode():
            program = None
            for _ in range(reps):
                decode_all(binary.text)
                program = lower(binary, name=binary_path.stem)
            return program
        wall, program = timer.best_of(config.repeat, run_decode)
        report.results.append(BenchResult(
            name=name, kind="decode", ops=reps * insns, wall_seconds=wall,
            detail={"insns": insns, "reps": reps,
                    "uops_per_insn": len(program) / insns if insns else 0.0}))

    # Tiers 4 and 5: sampled-vs-full accuracy and speedup (timed once per
    # case -- the full-detail reference run is exactly the cost sampling
    # removes), over the default suite and then the long-horizon workloads
    # that are only tractable under sampling.
    isrb_config = scheme_config("isrb")
    sampled_workloads = config.resolved_sampled_workloads() if config.sampled else ()
    sampled_tiers = (
        ("sampled", sampled_workloads, config.sampled_max_ops, config.sampling),
        ("sampled_long", config.long_workloads, config.long_max_ops,
         config.long_sampling),
    )
    for kind, tier_workloads, max_ops, sampling in sampled_tiers:
        for workload in tier_workloads:
            name = f"{kind}/{workload}"
            if progress is not None:
                progress(name)
            full_wall, full = timer.best_of(
                1, lambda workload=workload, max_ops=max_ops: simulate_trace(
                    generate_trace(workload, max_ops=max_ops, seed=config.seed),
                    isrb_config))
            simulator = SampledSimulator(isrb_config, sampling)
            wall, sampled = timer.best_of(
                1, lambda workload=workload, max_ops=max_ops:
                    simulator.run_workload(workload, max_ops=max_ops,
                                           seed=config.seed))
            report.results.append(BenchResult(
                name=name, kind=kind, ops=sampled.instructions, wall_seconds=wall,
                cycles=sampled.cycles,
                detail={
                    "ipc_full": full.ipc,
                    "ipc_sampled": sampled.ipc,
                    "ipc_ratio": sampled.ipc / full.ipc,
                    "speedup": full_wall / wall if wall > 0 else 0.0,
                    "full_wall_seconds": full_wall,
                    "windows": sampled.stat("sampling_windows"),
                }))

    # Tier 6: the checkpoint-farm sweep -- one multi-scheme sampled sweep
    # run both ways (shared warmup vs per-scheme independent warming), each
    # timed once; the independent run is exactly the redundant work the
    # farm removes, so its wall time is the honest denominator.
    if config.farm_sweep:
        name = f"sweep_farm/{config.farm_workload}"
        if progress is not None:
            progress(name)
        farm_spec = SweepSpec(
            schemes=config.farm_schemes,
            workloads=(config.farm_workload,),
            max_ops=config.farm_max_ops,
            seed=config.seed,
            sample_period=config.farm_sampling.period,
            sample_window=config.farm_sampling.window,
            sample_warmup=config.farm_sampling.warmup,
            sample_cooldown=config.farm_sampling.cooldown,
        )
        # The two sides are timed in interleaved pairs (farm, independent,
        # farm, independent, ...) so ambient load drift hits both equally
        # and the reported ratio stays stable; each side keeps its best
        # wall time, like every other repeated case.  Earlier tiers leave a
        # large live heap (cached traces, sampled runs) whose GC scans tax
        # the allocation-heavy planning pass disproportionately, so the
        # pre-existing heap is frozen out of collection for the duration.
        import gc

        gc.collect()
        gc.freeze()
        try:
            farm_wall = independent_wall = None
            farm_report = independent_report = None
            for _ in range(config.repeat):
                wall, farm_report = timer.best_of(
                    1, lambda: run_sweep(farm_spec, workers=1, cache_dir=None))
                if farm_wall is None or wall < farm_wall:
                    farm_wall = wall
                wall, independent_report = timer.best_of(
                    1, lambda: build_report(run_jobs(farm_spec.expand()),
                                            meta=farm_report.meta))
                if independent_wall is None or wall < independent_wall:
                    independent_wall = wall
        finally:
            gc.unfreeze()
        if farm_report.to_markdown() != independent_report.to_markdown():
            raise RuntimeError(
                "checkpoint-farm sweep disagrees with independent warming; "
                "the shared-warmup invariant is broken")
        report.results.append(BenchResult(
            name=name, kind="sweep_farm", ops=farm_spec.job_count(),
            wall_seconds=farm_wall,
            detail={
                "speedup": independent_wall / farm_wall if farm_wall > 0 else 0.0,
                "independent_wall_seconds": independent_wall,
                "schemes": list(config.farm_schemes),
                "failures": len(farm_report.failures),
            }))
        if farm_report.failures:
            raise RuntimeError(
                f"bench farm sweep had {len(farm_report.failures)} failed job(s): "
                + ", ".join(f["job_id"] for f in farm_report.failures))

    # Tier 6b: error-budget sampling vs the fixed reference geometry, at
    # equal accuracy.  The fixed run comes first; the error-budget run then
    # targets the relative CI half-width the fixed run achieved, with the
    # fixed run's window count as its ceiling, so "detailed micro-ops
    # saved >= 0" holds structurally and any positive saving is the
    # stopping rule quitting early at the same confidence.  The frozen
    # adaptive plan is finally replayed under the baseline and ISRB
    # machines to measure how much the matched window offsets shrink the
    # per-window speedup-delta variance vs an unpaired estimator.
    if config.adaptive:
        name = f"adaptive/{config.adaptive_workload}"
        if progress is not None:
            progress(name)
        from repro.common.statistics import weighted_mean_std
        from repro.pipeline.sampling import window_samples

        baseline_config = scheme_config("baseline")
        fixed_sim = SampledSimulator(isrb_config, config.adaptive_sampling)
        fixed_wall, fixed = timer.best_of(
            1, lambda: fixed_sim.run_workload(config.adaptive_workload,
                                              max_ops=config.adaptive_max_ops,
                                              seed=config.seed))
        achieved = fixed.stats.get("sampling_ipc_rel_ci95")
        tolerance = min(max(achieved if achieved is not None else 0.05,
                            0.001), 0.9)
        fixed_windows = int(fixed.stat("sampling_windows"))
        budget = replace(config.adaptive_sampling, tolerance=tolerance,
                         min_windows=2, max_windows=max(fixed_windows, 2))
        adaptive_sim = SampledSimulator(isrb_config, budget)
        image = build_workload(config.adaptive_workload, seed=config.seed)

        def run_adaptive():
            plan = adaptive_sim.plan(image, config.adaptive_workload,
                                     config.adaptive_max_ops)
            return plan, adaptive_sim.execute_plan(plan)
        adaptive_wall, (plan, adaptive_result) = timer.best_of(1, run_adaptive)

        def detailed_ops(result):
            return int(result.stat("sampled_instructions")
                       + result.stat("warmup_instructions")
                       + result.stat("cooldown_instructions"))
        ops_fixed = detailed_ops(fixed)
        ops_adaptive = detailed_ops(adaptive_result)

        # Paired speedup deltas: one frozen plan replayed under both
        # machines means window i covers identical instructions on each
        # side, so the per-window ISRB/baseline IPC ratios difference out
        # the program-phase variance the two runs share.  The unpaired
        # term is the delta-method variance the same windows would give if
        # the two sides were sampled independently.
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

        report.results.append(BenchResult(
            name=name, kind="adaptive", ops=adaptive_result.instructions,
            wall_seconds=adaptive_wall, cycles=adaptive_result.cycles,
            detail={
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
            }))

    # Tier 7: the paper-figure pipeline, smoke-sized, end to end (grids ->
    # results store -> charts/report).  A fresh scratch directory per
    # repeat so every run simulates every cell (no store resume).
    if config.paper:
        name = "paper/smoke"
        if progress is not None:
            progress(name)
        import shutil
        import tempfile

        from repro.paper import run_paper

        def run_paper_smoke():
            scratch = tempfile.mkdtemp(prefix="repro-bench-paper-")
            try:
                return run_paper(smoke=True, out_dir=scratch,
                                 seed=config.seed)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        wall, paper_summary = timer.best_of(config.repeat, run_paper_smoke)
        report.results.append(BenchResult(
            name=name, kind="paper", ops=paper_summary.total_cells,
            wall_seconds=wall,
            detail={"figures": len(paper_summary.figure_data),
                    "cells": paper_summary.total_cells,
                    "failures": paper_summary.failures}))
        if paper_summary.failures:
            raise RuntimeError(
                f"bench paper pipeline had {paper_summary.failures} "
                "failed cell(s)")

    # Tier 8: a small end-to-end sweep (grid -> cache-less run -> report).
    if config.sweep:
        name = "sweep/small"
        if progress is not None:
            progress(name)
        spec = SweepSpec(
            schemes=config.sweep_schemes,
            workloads=config.sweep_workloads,
            max_ops=min(config.max_ops, 4_000),
            seed=config.seed,
        )
        wall, sweep_report = timer.best_of(
            1, lambda: run_sweep(spec, workers=1, cache_dir=None))
        report.results.append(BenchResult(
            name=name, kind="sweep", ops=spec.job_count(), wall_seconds=wall,
            detail={"failures": len(sweep_report.failures),
                    "variants": list(sweep_report.variants)}))
        if sweep_report.failures:
            raise RuntimeError(
                f"bench sweep had {len(sweep_report.failures)} failed job(s): "
                + ", ".join(f["job_id"] for f in sweep_report.failures))

    return report
