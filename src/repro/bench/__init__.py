"""The benchmark subsystem: a repeatable performance baseline for the simulator.

The paper's evaluation needs thousands of (workload x scheme x sizing)
simulations, so the *throughput of the simulator itself* is a first-class
concern.  This package measures it in ten tiers (described in
:mod:`repro.bench.suite`):

* ``trace_gen`` -- the functional executor, per workload;
* ``sim`` -- the cycle-level core, per tracker scheme over a
  representative workload set;
* ``ff`` -- the compiled functional fast-forward core;
* ``sampled`` and ``sampled_long`` -- two-speed sampled simulation against
  a full-detail reference, on the default suite and on the >=1M-op
  workloads;
* ``sweep_farm`` -- a sampled sweep with the shared-warmup checkpoint farm
  against per-scheme warming;
* ``adaptive`` -- error-budget sampling against the fixed geometry;
* ``decode`` -- the RISC-V frontend on the sample binary;
* ``sweep`` -- a small ``run_sweep`` including cache warming, job
  execution and report aggregation;
* ``paper`` -- the ``repro paper --smoke`` pipeline end to end.

``python -m repro bench`` runs the suite and writes ``BENCH_core.json``
(machine-readable: ops/sec, cycles simulated/sec, wall seconds, geomeans)
so that every PR can be compared against the committed baseline;
``--smoke`` re-runs a reduced suite and fails when a benchmark errors or a
summary metric regresses beyond tolerance.
"""

from repro.bench.report import BenchReport, BenchResult, compare_reports
from repro.bench.suite import BenchConfig, run_benchmarks

__all__ = [
    "BenchConfig",
    "BenchReport",
    "BenchResult",
    "compare_reports",
    "run_benchmarks",
]
