"""Shared low-level utilities used across the register-sharing reproduction.

The :mod:`repro.common` package gathers small, dependency-free building
blocks that several subsystems of the simulator rely on:

* :mod:`repro.common.history` -- global branch history and path history
  registers with cheap checkpoint/restore, shared by the TAGE branch
  predictor and the TAGE-like instruction distance predictor.
* :mod:`repro.common.hashing` -- folded-XOR index and tag hashing helpers
  for geometric-history predictors.
* :mod:`repro.common.statistics` -- geometric means, speedups and a small
  named-statistics registry used by the simulator and the benchmark
  harness.
"""

from repro.common.history import HistoryCheckpoint, PathHistory, ShiftHistory
from repro.common.hashing import fold_bits, mix_hash, tag_hash
from repro.common.statistics import StatGroup, geometric_mean, harmonic_mean, speedup

__all__ = [
    "ShiftHistory",
    "PathHistory",
    "HistoryCheckpoint",
    "fold_bits",
    "mix_hash",
    "tag_hash",
    "geometric_mean",
    "harmonic_mean",
    "speedup",
    "StatGroup",
]
