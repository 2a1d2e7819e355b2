"""The Speculative Memory Bypassing engine (Section 3).

SMB renames the destination of a load onto the physical register of the
instruction that produced the value the load will read -- the source of an
in-flight store (store-load pair) or an earlier load from the same address
(load-load pair).  Dependents of the load then wake up as soon as the
producer's value is ready instead of waiting for the load-to-use latency or
for store-to-load forwarding, and memory dependences missed by the Store
Sets predictor are satisfied through the register file instead of causing
memory-order traps.

The engine has two halves:

* a **rename-side** half that queries the Instruction Distance predictor
  with the load's PC and the front-end branch/path history and decides
  whether a bypass should be attempted (confidence saturated, distance in
  range, load not blacklisted after an earlier validation failure);
* a **commit-side** half that maintains the Commit-Rename-Map CSN fields
  and the Data Dependency Table, computes the *actual* distance of every
  committed load and trains the predictor with it.

The actual ROB lookup (turning ``load.seq - distance`` into a physical
register) and the register-sharing request are performed by the renamer,
which owns those structures; the engine records the outcome through the
``note_*`` methods so all Figure 6 statistics come from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ddt import CommitCsnTable, DataDependencyTable, DdtConfig
from repro.core.distance import (
    DistancePrediction,
    NoSqDistanceConfig,
    TageDistanceConfig,
    make_distance_predictor,
)
from repro.isa.executor import DynamicOp


@dataclass(frozen=True)
class SmbConfig:
    """Configuration of speculative memory bypassing.

    Attributes
    ----------
    enabled:
        Master switch.
    predictor:
        ``"tage"`` for the paper's TAGE-like Instruction Distance predictor
        or ``"nosq"`` for the two-table NoSQ-style baseline.
    allow_load_load:
        Also bypass load-load pairs (Section 3's generalisation); disabling
        this reproduces the store-only ablation of Section 6.2.
    bypass_from_committed:
        Allow bypassing from instructions that have committed but whose ROB
        entries have not been reclaimed yet (Figure 6c's lazy reclaim).
    max_distance:
        Largest predictable distance; the paper notes the distance cannot
        exceed the ROB size plus the instructions in flight to Dispatch
        (about 256 for the Table 1 machine).
    ddt:
        Geometry of the Data Dependency Table.
    suppress_repeat_failures:
        After a validation failure, never bypass the same dynamic load
        again (prevents flush livelock on re-execution).
    """

    enabled: bool = True
    predictor: str = "tage"
    allow_load_load: bool = True
    bypass_from_committed: bool = False
    max_distance: int = 256
    ddt: DdtConfig = field(default_factory=DdtConfig)
    suppress_repeat_failures: bool = True


@dataclass
class SmbStats:
    """Counters behind Figures 6a/6b/6c."""

    loads_seen: int = 0
    predictions_usable: int = 0
    bypasses_store_load: int = 0
    bypasses_load_load: int = 0
    bypasses_from_committed: int = 0
    rejected_no_producer: int = 0
    rejected_tracker: int = 0
    rejected_out_of_reach: int = 0
    validation_successes: int = 0
    validation_failures: int = 0
    distance_correct: int = 0
    distance_incorrect: int = 0
    loads_trained: int = 0
    loads_without_producer: int = 0

    @property
    def bypasses_total(self) -> int:
        """Total number of loads whose destination was bypassed."""
        return (self.bypasses_store_load + self.bypasses_load_load
                + self.bypasses_from_committed)

    def as_dict(self) -> dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return {
            "smb_loads_seen": self.loads_seen,
            "smb_predictions_usable": self.predictions_usable,
            "smb_bypasses_store_load": self.bypasses_store_load,
            "smb_bypasses_load_load": self.bypasses_load_load,
            "smb_bypasses_from_committed": self.bypasses_from_committed,
            "smb_bypasses_total": self.bypasses_total,
            "smb_rejected_no_producer": self.rejected_no_producer,
            "smb_rejected_tracker": self.rejected_tracker,
            "smb_rejected_out_of_reach": self.rejected_out_of_reach,
            "smb_validation_successes": self.validation_successes,
            "smb_validation_failures": self.validation_failures,
            "smb_distance_correct": self.distance_correct,
            "smb_distance_incorrect": self.distance_incorrect,
            "smb_loads_trained": self.loads_trained,
            "smb_loads_without_producer": self.loads_without_producer,
        }


class SmbEngine:
    """Prediction, training and accounting for speculative memory bypassing."""

    def __init__(self, config: SmbConfig | None = None, num_arch_regs: int = 32,
                 predictor_config: TageDistanceConfig | NoSqDistanceConfig | None = None) -> None:
        self.config = config or SmbConfig()
        self.predictor = make_distance_predictor(self.config.predictor, predictor_config)
        self.ddt = DataDependencyTable(self.config.ddt)
        self.csn_table = CommitCsnTable(num_arch_regs)
        self.stats = SmbStats()
        self._blacklisted_seqs: set[int] = set()

    # -- rename-side --------------------------------------------------------------

    def predict(self, op: DynamicOp, history: int, path: int) -> DistancePrediction | None:
        """Query the distance predictor for a load; ``None`` when SMB should not be attempted."""
        if not self.config.enabled or not op.is_load:
            return None
        self.stats.loads_seen += 1
        if self.config.suppress_repeat_failures and op.seq in self._blacklisted_seqs:
            return None
        prediction = self.predictor.predict(op.pc, history, path)
        if not prediction.usable or prediction.distance > self.config.max_distance:
            return None
        self.stats.predictions_usable += 1
        return prediction

    def note_bypass(self, producer_is_load: bool, producer_committed: bool) -> None:
        """Record a successful bypass, classified as in Figure 6."""
        if producer_committed:
            self.stats.bypasses_from_committed += 1
        elif producer_is_load:
            self.stats.bypasses_load_load += 1
        else:
            self.stats.bypasses_store_load += 1

    def note_rejection(self, reason: str) -> None:
        """Record a bypass attempt that could not be completed.

        ``reason`` is one of ``"no_producer"`` (the predicted distance does
        not name a register-producing, reachable instruction), ``"tracker"``
        (the sharing tracker is full) or ``"out_of_reach"`` (the producer
        left the window and committed-instruction bypassing is disabled).
        """
        if reason == "no_producer":
            self.stats.rejected_no_producer += 1
        elif reason == "tracker":
            self.stats.rejected_tracker += 1
        elif reason == "out_of_reach":
            self.stats.rejected_out_of_reach += 1
        else:
            raise ValueError(f"unknown SMB rejection reason {reason!r}")

    def note_validation(self, op: DynamicOp, success: bool, history: int = 0, path: int = 0,
                        prediction: DistancePrediction | None = None) -> None:
        """Record the writeback-time validation outcome of a bypassed load.

        A failure also clears the confidence of the predictor entry that
        authorised the bypass -- a distance misprediction costs a pipeline
        flush, so the predictor must re-earn its confidence (Section 3.1).
        """
        if success:
            self.stats.validation_successes += 1
        else:
            self.stats.validation_failures += 1
            self.predictor.punish(op.pc, history, path, prediction)
            if self.config.suppress_repeat_failures:
                self._blacklisted_seqs.add(op.seq)

    # -- commit-side --------------------------------------------------------------

    def train_commit(self, op: DynamicOp, csn: int, history: int, path: int,
                     prediction: DistancePrediction | None = None) -> None:
        """Update CSN / DDT state for a committing micro-op and train the predictor."""
        if not self.config.enabled:
            return
        if op.is_store and op.mem_addr is not None and op.srcs:
            data_arch_flat = op.src_flats[0]
            producer = self.csn_table.producer_of(data_arch_flat)
            if producer is not None:
                self.ddt.update(op.mem_addr, producer)
        if op.is_load and op.mem_addr is not None:
            recorded = self.ddt.lookup(op.mem_addr)
            actual = csn - recorded if recorded is not None else None
            if actual is not None and actual <= 0:
                actual = None
            self.stats.loads_trained += 1
            if actual is None:
                self.stats.loads_without_producer += 1
            elif prediction is not None and prediction.usable:
                if prediction.distance == actual:
                    self.stats.distance_correct += 1
                else:
                    self.stats.distance_incorrect += 1
            self.predictor.train(op.pc, history, path, actual, prediction)
            if self.config.allow_load_load:
                # The load's own destination becomes the closest producer of
                # this address, enabling load-load bypassing.
                self.ddt.update(op.mem_addr, csn)
        if op.writes_register:
            self.csn_table.define(op.dest_flat, csn)

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the distance predictor, the DDT and the CSN table.

        The validation-failure blacklist is keyed by *trace sequence
        number* and is therefore window-local: it is intentionally dropped,
        just like the Store Sets LFST.  CSNs are absolute across windows
        (the pipeline adds a commit base), so DDT contents stay meaningful
        after a restore.  Statistics are not part of the snapshot.
        """
        return {
            "predictor": self.predictor.to_snapshot(),
            "ddt": self.ddt.to_snapshot(),
            "csn_table": self.csn_table.to_snapshot(),
        }

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the trained state with a :meth:`to_snapshot` image."""
        self.predictor.restore_snapshot(snapshot["predictor"])
        self.ddt.restore_snapshot(snapshot["ddt"])
        self.csn_table.restore_snapshot(snapshot["csn_table"])
        self._blacklisted_seqs = set()

    # -- reporting ----------------------------------------------------------------

    def storage_bits(self) -> int:
        """Predictor plus DDT storage in bits (the ~21KB figure of Section 3.1)."""
        return self.predictor.storage_bits() + self.ddt.storage_bits()

    def stats_dict(self) -> dict[str, int]:
        """All SMB counters as a dictionary (merged into the simulation statistics)."""
        return self.stats.as_dict()
