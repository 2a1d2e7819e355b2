"""The paper's contribution: register sharing, move elimination and SMB.

This package contains everything Sections 2-4 of the paper describe:

* :mod:`repro.core.tracker` -- the common interface every register
  reference-counting scheme implements, plus its storage/recovery cost
  model.
* :mod:`repro.core.isrb` -- the **Inflight Shared Register Buffer**, the
  paper's proposal: a small fully-associative buffer of
  ``(physical register, referenced, committed)`` entries using resettable
  up-counters, which makes the structure checkpointable and recovery
  single-cycle.
* :mod:`repro.core.refcount` -- classic per-physical-register reference
  counters (the scheme most prior work assumes), including the unlimited
  "ideal" variant, with sequential-walk recovery.
* :mod:`repro.core.matrix` -- Roth's 2D reference matrix and the
  Battle et al. compressed variant (storage comparison points).
* :mod:`repro.core.mit` -- Intel's Multiple Instantiation Table
  (architectural-name based, move elimination only).
* :mod:`repro.core.rda` -- Apple's Register Duplicate Array (counter per
  entry, checkpoints must be updated at retirement).
* :mod:`repro.core.move_elim` -- x86_64 move-elimination eligibility rules
  and bookkeeping.
* :mod:`repro.core.ddt` -- the Data Dependency Table and commit-side CSN
  tracking that identify store-load / load-load pairs at retirement.
* :mod:`repro.core.distance` -- the TAGE-like Instruction Distance
  predictor proposed by the paper.
* :mod:`repro.core.smb` -- the Speculative Memory Bypassing engine tying
  prediction, ROB lookup, sharing and validation together.
"""

from repro.core.ddt import CommitCsnTable, DataDependencyTable, DdtConfig
from repro.core.distance import DistancePrediction, TageDistanceConfig, TageDistancePredictor
from repro.core.isrb import InflightSharedRegisterBuffer, IsrbConfig
from repro.core.matrix import BattleMatrixTracker, RothMatrixTracker
from repro.core.mit import MultipleInstantiationTable
from repro.core.move_elim import MoveEliminationPolicy, MoveEliminationStats
from repro.core.rda import RegisterDuplicateArray
from repro.core.refcount import ReferenceCounterTracker
from repro.core.smb import SmbConfig, SmbEngine
from repro.core.tracker import ReclaimDecision, SharingTracker, TrackerConfig, make_tracker

__all__ = [
    "SharingTracker",
    "TrackerConfig",
    "ReclaimDecision",
    "make_tracker",
    "InflightSharedRegisterBuffer",
    "IsrbConfig",
    "ReferenceCounterTracker",
    "RothMatrixTracker",
    "BattleMatrixTracker",
    "MultipleInstantiationTable",
    "RegisterDuplicateArray",
    "MoveEliminationPolicy",
    "MoveEliminationStats",
    "DataDependencyTable",
    "DdtConfig",
    "CommitCsnTable",
    "DistancePrediction",
    "TageDistancePredictor",
    "TageDistanceConfig",
    "SmbEngine",
    "SmbConfig",
]
