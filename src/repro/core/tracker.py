"""Common interface and cost model for register reference-counting schemes.

Register sharing breaks the classic invariant that committing an
instruction frees the physical register previously mapped to its
architectural destination.  Every scheme studied by the paper therefore has
to answer the same three questions, which form the
:class:`SharingTracker` interface used by the renamer and the commit stage:

* ``try_share(preg, ...)`` -- may one more in-flight instruction reference
  this physical register (move elimination or SMB)?  Schemes with limited
  capacity (ISRB, MIT, RDA) may refuse, in which case the optimisation is
  simply not performed for that instruction.
* ``reclaim(preg, arch_reg)`` -- a committing instruction overwrites a
  mapping that pointed to ``preg``; may the register be returned to the
  free list now?
* ``flush_to_committed()`` -- the pipeline squashes every in-flight
  instruction (memory-order trap or bypass validation failure at commit);
  the tracker must fall back to a state consistent with the committed
  machine state and report any register whose reclaim had been deferred on
  behalf of a now-squashed sharer.

In addition every scheme exposes a *cost model*: storage bits, per-checkpoint
bits and the branch-misprediction recovery latency in cycles.  The paper's
argument is precisely about these costs -- the ISRB is small, checkpointable
and recovers in a single cycle, whereas per-register counters need a
sequential walk of the squashed instructions.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass


class ReclaimDecision(enum.Enum):
    """Outcome of a reclaim check for a physical register."""

    FREE = "free"
    KEEP = "keep"


@dataclass(frozen=True)
class TrackerConfig:
    """Configuration shared by all sharing-tracker schemes.

    Attributes
    ----------
    scheme:
        One of ``"isrb"``, ``"unlimited"``, ``"refcount"``,
        ``"refcount_checkpoint"``, ``"rda"``, ``"mit"``, ``"matrix"`` or
        ``"battle"``.
    entries:
        Capacity of the tracking structure for limited schemes (ISRB, MIT,
        RDA).  ``None`` means unlimited.
    counter_bits:
        Width of the ``referenced`` / ``committed`` fields.  ``None`` means
        unbounded counters (the paper's 32-bit comparison point).
    checkpoints:
        Number of in-flight checkpoints provisioned (for the checkpoint
        storage figures of Section 4.3.3).
    num_phys_regs:
        Total number of physical registers (used for storage accounting of
        per-register schemes).
    num_arch_regs:
        Number of architectural registers (used by the MIT bit-vectors).
    rob_entries:
        Reorder buffer size (used by the Roth matrix storage model).
    """

    scheme: str = "isrb"
    entries: int | None = 32
    counter_bits: int | None = 3
    checkpoints: int = 8
    num_phys_regs: int = 512
    num_arch_regs: int = 32
    rob_entries: int = 192


@dataclass
class TrackerStats:
    """Event counters every tracker keeps."""

    share_requests: int = 0
    shares_granted: int = 0
    shares_rejected_full: int = 0
    shares_rejected_saturated: int = 0
    shares_rejected_unsupported: int = 0
    reclaim_checks: int = 0
    reclaim_deferred: int = 0
    entries_freed: int = 0
    flush_recoveries: int = 0
    registers_freed_on_flush: int = 0
    peak_occupancy: int = 0

    def as_dict(self) -> dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return {
            "share_requests": self.share_requests,
            "shares_granted": self.shares_granted,
            "shares_rejected_full": self.shares_rejected_full,
            "shares_rejected_saturated": self.shares_rejected_saturated,
            "shares_rejected_unsupported": self.shares_rejected_unsupported,
            "reclaim_checks": self.reclaim_checks,
            "reclaim_deferred": self.reclaim_deferred,
            "entries_freed": self.entries_freed,
            "flush_recoveries": self.flush_recoveries,
            "registers_freed_on_flush": self.registers_freed_on_flush,
            "peak_occupancy": self.peak_occupancy,
        }


class SharingTracker(ABC):
    """Abstract register reference-counting scheme."""

    #: Human-readable scheme name.
    name: str = "abstract"
    #: Whether the scheme can track SMB sharing (the MIT cannot).
    supports_memory_bypass: bool = True
    #: Whether the scheme can track move-elimination sharing.
    supports_move_elimination: bool = True
    #: Whether recovery is achieved by restoring checkpoints (single cycle)
    #: rather than walking the squashed instructions.
    checkpoint_recovery: bool = True

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self.stats = TrackerStats()

    # -- sharing ------------------------------------------------------------------

    @abstractmethod
    def try_share(self, preg: int, *, dest_arch: int, src_arch: int | None = None,
                  memory_bypass: bool = False) -> bool:
        """Request one more reference to ``preg`` on behalf of a renamed instruction.

        ``dest_arch``/``src_arch`` are flat architectural register indices
        (the MIT is the only scheme that uses them).  ``memory_bypass`` is
        ``True`` for SMB and ``False`` for move elimination.  Returns
        ``True`` when the reference was recorded; ``False`` means the
        optimisation must be aborted for this instruction.
        """

    @abstractmethod
    def on_share_commit(self, preg: int) -> None:
        """A sharing (bypassing/eliminated) instruction referencing ``preg`` committed."""

    @abstractmethod
    def reclaim(self, preg: int, arch_reg: int) -> ReclaimDecision:
        """A committing instruction overwrites a mapping of ``arch_reg`` that held ``preg``."""

    @abstractmethod
    def flush_to_committed(self) -> list[int]:
        """Squash all in-flight state; return physical registers that become free."""

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the tracker's live entries (drained-pipeline state).

        Snapshots are taken at detailed-window boundaries with no
        instruction in flight, so speculative state (branch checkpoints,
        in-flight sharers) is empty by construction; only the committed
        tracking entries -- the ones whose deferred reclaims must survive
        the window gap -- are captured.  Statistics are not included.
        """
        raise NotImplementedError(
            f"tracker scheme {self.name!r} does not implement snapshots")

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the live entries with a :meth:`to_snapshot` image."""
        raise NotImplementedError(
            f"tracker scheme {self.name!r} does not implement snapshots")

    # -- introspection ------------------------------------------------------------

    @abstractmethod
    def is_tracked(self, preg: int) -> bool:
        """Return ``True`` while ``preg`` has an active tracking entry."""

    @abstractmethod
    def occupancy(self) -> int:
        """Number of live tracking entries."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Storage required by the main structure, in bits."""

    @abstractmethod
    def checkpoint_bits(self) -> int:
        """Storage required per additional checkpoint, in bits."""

    def recovery_cycles(self, squashed_instructions: int, walk_width: int = 8) -> int:
        """Branch-misprediction recovery latency added by this scheme, in cycles.

        Checkpoint-based schemes repair their state in a single cycle
        (Section 4.3.1); walk-based schemes must visit every squashed
        instruction, ``walk_width`` per cycle (Section 4.2).
        """
        if self.checkpoint_recovery:
            return 1
        if squashed_instructions <= 0:
            return 0
        return -(-squashed_instructions // walk_width)  # ceiling division

    def _note_occupancy(self) -> None:
        """Update the peak-occupancy statistic (call after any allocation)."""
        occupancy = self.occupancy()
        if occupancy > self.stats.peak_occupancy:
            self.stats.peak_occupancy = occupancy

    def __repr__(self) -> str:
        return f"{type(self).__name__}(entries={self.config.entries}, occupancy={self.occupancy()})"


def make_tracker(config: TrackerConfig) -> SharingTracker:
    """Instantiate the sharing tracker selected by ``config.scheme``."""
    # Imported here to avoid circular imports between tracker implementations.
    from repro.core.isrb import InflightSharedRegisterBuffer
    from repro.core.matrix import BattleMatrixTracker, RothMatrixTracker
    from repro.core.mit import MultipleInstantiationTable
    from repro.core.rda import RegisterDuplicateArray
    from repro.core.refcount import (
        CheckpointedReferenceCounterTracker,
        ReferenceCounterTracker,
    )

    scheme = config.scheme.lower()
    if scheme == "isrb":
        return InflightSharedRegisterBuffer(config)
    if scheme == "unlimited":
        unlimited = TrackerConfig(
            scheme="unlimited",
            entries=None,
            counter_bits=None,
            checkpoints=config.checkpoints,
            num_phys_regs=config.num_phys_regs,
            num_arch_regs=config.num_arch_regs,
            rob_entries=config.rob_entries,
        )
        return InflightSharedRegisterBuffer(unlimited)
    if scheme == "refcount":
        return ReferenceCounterTracker(config)
    if scheme == "refcount_checkpoint":
        return CheckpointedReferenceCounterTracker(config)
    if scheme == "rda":
        return RegisterDuplicateArray(config)
    if scheme == "mit":
        return MultipleInstantiationTable(config)
    if scheme == "matrix":
        return RothMatrixTracker(config)
    if scheme == "battle":
        return BattleMatrixTracker(config)
    raise ValueError(
        f"unknown sharing tracker scheme {config.scheme!r}; expected one of "
        "'isrb', 'unlimited', 'refcount', 'refcount_checkpoint', 'rda', 'mit', "
        "'matrix', 'battle'"
    )
