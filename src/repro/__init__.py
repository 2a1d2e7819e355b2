"""Reproduction of "Cost Effective Physical Register Sharing" (HPCA 2016).

The library implements the paper's register sharing framework -- the
Inflight Shared Register Buffer (ISRB) and the reference-counting schemes it
is compared against -- together with the two optimisations used to evaluate
it (move elimination and speculative memory bypassing with a TAGE-like
Instruction Distance predictor), on top of a from-scratch cycle-level
out-of-order core model and a synthetic workload suite.

Typical usage::

    from repro import CoreConfig, simulate

    baseline = CoreConfig()
    optimised = baseline.with_move_elimination().with_smb()

    base = simulate("spill_reload", baseline, max_ops=20_000)
    best = simulate("spill_reload", optimised, max_ops=20_000)
    print(best.speedup_over(base))

Whole evaluation matrices (the paper's Figures 7--9) run through the
experiment harness instead of one ``simulate`` call at a time::

    from repro import SweepSpec, run_sweep

    spec = SweepSpec(schemes=("isrb", "refcount_checkpoint"), max_ops=20_000)
    report = run_sweep(spec, workers=4, cache_dir=".trace_cache")
    print(report.to_markdown())

or, equivalently, ``python -m repro sweep --schemes isrb,refcount_checkpoint``.
The paper's figures themselves come from the :mod:`repro.paper` pipeline::

    from repro import run_paper

    summary = run_paper(smoke=True)   # Figures 7-9 -> artifacts/paper/

which is ``python -m repro paper --smoke`` on the command line -- resumable
via an append-only results store, so interrupted grids restart where they
stopped.

Observability lives in :mod:`repro.telemetry` (docs/observability.md):
opt-in per-instruction pipeline tracing (``CoreConfig.with_trace()`` /
``python -m repro trace``), the unified :class:`MetricsRegistry` behind
every stat dictionary, and structured run logging with live progress for
the sweep and paper pipelines.

The subpackages are documented in DESIGN.md and docs/maintainer-guide.md;
the most useful entry points are re-exported here.
"""

from repro.core.isrb import InflightSharedRegisterBuffer
from repro.experiments import (
    Job,
    JobResult,
    SweepReport,
    SweepSpec,
    TraceCache,
    build_report,
    run_jobs,
    run_sweep,
)
from repro.core.move_elim import MoveEliminationPolicy
from repro.core.smb import SmbConfig
from repro.paper import FIGURES, ResultsStore, run_paper
from repro.core.tracker import TrackerConfig, make_tracker
from repro.isa.functional import FunctionalCore
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core, simulate, simulate_trace
from repro.pipeline.sampling import SampledSimulator, SamplingConfig, simulate_sampled
from repro.pipeline.snapshot import CoreSnapshot
from repro.pipeline.result import SimulationResult
from repro.telemetry import (
    MetricsRegistry,
    PipelineTracer,
    ProgressReporter,
    RunLogger,
    TraceConfig,
)
from repro.workloads import DEFAULT_SUITE, generate_trace, list_workloads

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "FIGURES",
    "ResultsStore",
    "run_paper",
    "SweepSpec",
    "Job",
    "JobResult",
    "TraceCache",
    "run_jobs",
    "run_sweep",
    "SweepReport",
    "build_report",
    "CoreConfig",
    "Core",
    "CoreSnapshot",
    "FunctionalCore",
    "SampledSimulator",
    "SamplingConfig",
    "SimulationResult",
    "simulate",
    "simulate_sampled",
    "simulate_trace",
    "InflightSharedRegisterBuffer",
    "TrackerConfig",
    "make_tracker",
    "MoveEliminationPolicy",
    "SmbConfig",
    "generate_trace",
    "list_workloads",
    "DEFAULT_SUITE",
    "MetricsRegistry",
    "PipelineTracer",
    "ProgressReporter",
    "RunLogger",
    "TraceConfig",
]
