"""The benchmark subsystem: a repeatable performance baseline for the simulator.

The paper's evaluation needs thousands of (workload x scheme x sizing)
simulations, so the *throughput of the simulator itself* is a first-class
concern.  This package measures it in ten tiers, from the functional
executor and the cycle-level core to a whole ``repro paper --smoke`` run;
:data:`repro.bench.suite.TIERS` is the table of them, and the comment
above it says what each one measures.

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
