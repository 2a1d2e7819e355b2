"""Core configuration (Table 1 of the paper, plus the optimisation knobs).

The default :class:`CoreConfig` reproduces the baseline machine of Table 1:
an 8-wide front end feeding a 6-issue out-of-order engine with a 192-entry
ROB, 60-entry issue queue, 72/48-entry load/store queues, 256+256 physical
registers, a TAGE branch predictor, Store Sets memory dependence prediction
and a three-level memory hierarchy.  Move elimination and SMB are *off* by
default; the ``with_*`` helpers return derived configurations used by the
experiments.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

from repro.bpred.tage import TageConfig
from repro.core.move_elim import MoveEliminationPolicy
from repro.core.smb import SmbConfig
from repro.core.tracker import TrackerConfig
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS
from repro.memdep.store_sets import StoreSetsConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.telemetry.trace import TraceConfig


@dataclass(frozen=True)
class CoreConfig:
    """Full description of the simulated machine."""

    # -- pipeline widths ---------------------------------------------------------
    fetch_width: int = 8
    rename_width: int = 8
    issue_width: int = 6
    commit_width: int = 8
    max_taken_branches_per_fetch: int = 1

    # -- window sizes ------------------------------------------------------------
    rob_entries: int = 192
    iq_entries: int = 60
    lq_entries: int = 72
    sq_entries: int = 48
    num_int_pregs: int = 256
    num_fp_pregs: int = 256
    frontend_queue_entries: int = 96

    # -- pipeline depths and penalties (cycles) ------------------------------------
    frontend_depth: int = 15
    btb_miss_penalty: int = 2
    trap_penalty: int = 5
    ras_mispredict_penalty: int = 0  # resolved like a branch misprediction

    # -- execution latencies (cycles) ----------------------------------------------
    int_alu_latency: int = 1
    int_mul_latency: int = 3
    int_div_latency: int = 25
    fp_alu_latency: int = 3
    fp_mul_latency: int = 5
    fp_div_latency: int = 10
    branch_latency: int = 1
    store_latency: int = 1
    stlf_latency: int = 4
    partial_forward_penalty: int = 2

    # -- front end ---------------------------------------------------------------
    branch_predictor: TageConfig = field(default_factory=TageConfig)
    btb_entries: int = 4096
    btb_ways: int = 2
    ras_depth: int = 32

    # -- memory dependence and hierarchy -------------------------------------------
    store_sets: StoreSetsConfig = field(default_factory=StoreSetsConfig)
    memory: HierarchyConfig = field(default_factory=HierarchyConfig)

    # -- the paper's optimisations --------------------------------------------------
    move_elimination: MoveEliminationPolicy = field(
        default_factory=lambda: MoveEliminationPolicy(enabled=False))
    smb: SmbConfig = field(default_factory=lambda: SmbConfig(enabled=False))
    tracker: TrackerConfig = field(default_factory=lambda: TrackerConfig(
        scheme="isrb", entries=32, counter_bits=3,
        num_phys_regs=512, num_arch_regs=NUM_INT_REGS + NUM_FP_REGS, rob_entries=192))
    lazy_reclaim: bool = False
    free_list_low_watermark: int = 16

    # -- simulator execution strategy (no effect on simulated behaviour) ------------
    #: Event-driven cycle skipping: when no pipeline stage can make progress
    #: this cycle, jump straight to the next cycle at which one can, crediting
    #: the skipped span to the stall counters.  Results are bit-identical to
    #: the per-cycle walk (enforced by the differential tests); the flag only
    #: exists so those tests can run both modes.
    cycle_skipping: bool = True
    #: Opt-in per-instruction pipeline event tracing
    #: (:class:`~repro.telemetry.trace.TraceConfig`).  ``None`` -- the
    #: default -- constructs no tracer at all, keeping the hot loops on
    #: their event-driven fast path; a traced run records lifecycle events
    #: for the configured sequence window with bit-identical simulation
    #: results (the tracer only reads pipeline state; enforced by
    #: ``tests/test_telemetry.py``).
    trace: TraceConfig | None = None

    # -- safety -------------------------------------------------------------------
    max_cycles_per_instruction: int = 400

    def __post_init__(self) -> None:
        if self.rename_width < 1 or self.issue_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be >= 1")
        if self.num_int_pregs <= NUM_INT_REGS or self.num_fp_pregs <= NUM_FP_REGS:
            raise ValueError("each physical register file must exceed the architectural count")

    # -- derived values -----------------------------------------------------------

    @property
    def num_phys_regs(self) -> int:
        """Total number of physical registers across both classes."""
        return self.num_int_pregs + self.num_fp_pregs

    # -- derived configurations -----------------------------------------------------

    def replace(self, **changes) -> "CoreConfig":
        """A copy of this configuration with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_tracker(self, scheme: str = "isrb", entries: int | None = 32,
                     counter_bits: int | None = 3, checkpoints: int = 8) -> "CoreConfig":
        """A copy with a different sharing tracker."""
        tracker = TrackerConfig(
            scheme=scheme, entries=entries, counter_bits=counter_bits, checkpoints=checkpoints,
            num_phys_regs=self.num_phys_regs, num_arch_regs=NUM_INT_REGS + NUM_FP_REGS,
            rob_entries=self.rob_entries)
        return self.replace(tracker=tracker)

    def with_move_elimination(self, enabled: bool = True, fp_moves: bool = False) -> "CoreConfig":
        """A copy with move elimination switched on (or off)."""
        policy = MoveEliminationPolicy(enabled=enabled, fp_moves=fp_moves)
        return self.replace(move_elimination=policy)

    def with_smb(self, enabled: bool = True, allow_load_load: bool = True,
                 bypass_from_committed: bool = False) -> "CoreConfig":
        """A copy with speculative memory bypassing configured."""
        smb = SmbConfig(enabled=enabled, allow_load_load=allow_load_load,
                        bypass_from_committed=bypass_from_committed)
        lazy = bypass_from_committed or self.lazy_reclaim
        return self.replace(smb=smb, lazy_reclaim=lazy)

    def with_trace(self, start: int = 0, limit: int = 256,
                   max_events: int = 100_000) -> "CoreConfig":
        """A copy with pipeline event tracing enabled for one seq window."""
        return self.replace(trace=TraceConfig(start=start, limit=limit,
                                              max_events=max_events))

    def variant_name(self) -> str:
        """Filesystem- and table-safe name for this configuration variant.

        Unlike :meth:`label` (free-form, for humans) the variant name only
        uses ``[a-z0-9._-]`` so the experiment harness can key artifact
        files, report columns and cache entries on it.
        """
        tracker = self.tracker
        entries = "unl" if tracker.entries is None else str(tracker.entries)
        bits = "unl" if tracker.counter_bits is None else str(tracker.counter_bits)
        parts = [f"{tracker.scheme}-e{entries}-c{bits}"]
        if self.move_elimination.enabled:
            parts.append("me")
        if self.smb.enabled:
            smb = f"smb.{self.smb.predictor}"
            if self.smb.bypass_from_committed:
                smb += ".committed"
            parts.append(smb)
        if len(parts) == 1:
            parts.append("base")
        return "_".join(parts)

    def warm_signature(self) -> str:
        """Fingerprint of the structures functional warming trains.

        Two configurations with the same signature can share a
        :class:`~repro.pipeline.sampling.SamplePlan` (the checkpoint farm):
        the plan's warm images only describe the memory hierarchy, the BTB
        and the RAS, plus the history registers whose width is fixed.
        Tracker scheme, move elimination, SMB and register-file sizing are
        deliberately excluded -- they are scheme-local detailed state.
        """
        payload = repr((self.memory, self.btb_entries, self.btb_ways,
                        self.ras_depth))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        """JSON-serialisable summary of the knobs the experiment grid varies.

        This is deliberately not a full round-trippable dump of every
        sub-configuration: it records the sweep-relevant knobs (tracker,
        optimisations, window/register sizing) so report artifacts are
        self-describing.
        """
        return {
            "label": self.label(),
            "variant": self.variant_name(),
            "tracker": {
                "scheme": self.tracker.scheme,
                "entries": self.tracker.entries,
                "counter_bits": self.tracker.counter_bits,
                "checkpoints": self.tracker.checkpoints,
            },
            "move_elimination": {
                "enabled": self.move_elimination.enabled,
                "fp_moves": self.move_elimination.fp_moves,
            },
            "smb": {
                "enabled": self.smb.enabled,
                "predictor": self.smb.predictor,
                "allow_load_load": self.smb.allow_load_load,
                "bypass_from_committed": self.smb.bypass_from_committed,
            },
            "rob_entries": self.rob_entries,
            "iq_entries": self.iq_entries,
            "num_int_pregs": self.num_int_pregs,
            "num_fp_pregs": self.num_fp_pregs,
            "lazy_reclaim": self.lazy_reclaim,
        }

    def label(self) -> str:
        """Short human-readable description of the optimisation configuration."""
        parts = []
        if self.move_elimination.enabled:
            parts.append("ME")
        if self.smb.enabled:
            suffix = "+committed" if self.smb.bypass_from_committed else ""
            parts.append(f"SMB({self.smb.predictor}{suffix})")
        if not parts:
            parts.append("baseline")
        entries = self.tracker.entries if self.tracker.entries is not None else "unl"
        parts.append(f"{self.tracker.scheme}:{entries}")
        return "+".join(parts)
