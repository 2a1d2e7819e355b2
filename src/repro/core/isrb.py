"""The Inflight Shared Register Buffer (ISRB) -- the paper's contribution.

The ISRB (Section 4.3) is a small fully-associative buffer tracking only the
physical registers that currently have *more than one* sharer.  Each entry
holds the physical register identifier (the CAM tag) and two resettable
up-counters:

* ``referenced`` is incremented every time the register is bypassed, i.e.
  obtained by an instruction *without* going through the free list (move
  elimination or SMB);
* ``committed`` is incremented every time an instruction that overwrites a
  mapping containing the register commits, as long as the register cannot
  be freed yet.

A register can be freed by the reclaiming logic when ``referenced ==
committed``; both counters are then reset and the entry released.

Because ``committed`` only reflects architectural (committed) state, it is
always correct; only ``referenced`` can be polluted by squashed wrong-path
instructions.  Checkpointing the ``referenced`` field alone therefore makes
the whole structure recoverable in a single cycle: on a pipeline flush the
checkpointed ``referenced`` values are restored, and if ``committed`` turns
out to be *greater* than the restored ``referenced`` the register should
already have been freed and is released immediately (Section 4.3.1's
working example, reproduced in this module's unit tests).

Two recovery paths are provided, matching Section 4.1:

* :meth:`checkpoint` / :meth:`restore` implement the branch-checkpoint
  mechanism described above;
* :meth:`flush_to_committed` implements the "squash at Commit" path (used
  for memory-order traps and bypass validation failures) where the tracker
  falls back to the state implied by the committed machine state, which the
  ISRB maintains as the committed image of ``referenced``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tracker import ReclaimDecision, SharingTracker, TrackerConfig


@dataclass(slots=True)
class IsrbEntry:
    """One ISRB entry: the two up-counters plus the committed image of ``referenced``."""

    referenced: int = 0
    committed: int = 0
    referenced_committed: int = 0


class InflightSharedRegisterBuffer(SharingTracker):
    """The ISRB register sharing tracker."""

    name = "isrb"
    supports_memory_bypass = True
    supports_move_elimination = True
    checkpoint_recovery = True

    def __init__(self, config: TrackerConfig | None = None) -> None:
        super().__init__(config or TrackerConfig())
        self._entries: dict[int, IsrbEntry] = {}
        self._checkpoints: dict[int, dict[int, int]] = {}
        self._next_checkpoint_id = 0
        if self.config.scheme == "unlimited":
            self.name = "unlimited"

    # -- capacity helpers ---------------------------------------------------------

    @property
    def capacity(self) -> int | None:
        """Maximum number of simultaneously tracked registers (``None`` = unlimited)."""
        return self.config.entries

    def _counter_limit(self) -> int | None:
        if self.config.counter_bits is None:
            return None
        return (1 << self.config.counter_bits) - 1

    def is_full(self) -> bool:
        """Return ``True`` when no new register can be tracked."""
        return self.capacity is not None and len(self._entries) >= self.capacity

    # -- SharingTracker interface -------------------------------------------------

    def try_share(self, preg: int, *, dest_arch: int, src_arch: int | None = None,
                  memory_bypass: bool = False) -> bool:
        """Record one more sharer of ``preg`` if capacity and counter width allow it."""
        self.stats.share_requests += 1
        limit = self._counter_limit()
        entry = self._entries.get(preg)
        if entry is None:
            if self.is_full():
                self.stats.shares_rejected_full += 1
                return False
            self._entries[preg] = IsrbEntry(referenced=1)
            self.stats.shares_granted += 1
            self._note_occupancy()
            return True
        if limit is not None and entry.referenced >= limit:
            # A wider reference count than the field can hold: abort the
            # bypass rather than lose track of a sharer (Section 6.3's
            # counter-width study measures how often this happens).
            self.stats.shares_rejected_saturated += 1
            return False
        entry.referenced += 1
        self.stats.shares_granted += 1
        return True

    def on_share_commit(self, preg: int) -> None:
        """A sharing instruction referencing ``preg`` committed: update the committed image."""
        entry = self._entries.get(preg)
        if entry is not None:
            entry.referenced_committed += 1

    def reclaim(self, preg: int, arch_reg: int) -> ReclaimDecision:
        """Reclaim check when a committing instruction overwrites a mapping holding ``preg``."""
        self.stats.reclaim_checks += 1
        entry = self._entries.get(preg)
        if entry is None:
            return ReclaimDecision.FREE
        if entry.referenced == entry.committed:
            self._free_entry(preg)
            return ReclaimDecision.FREE
        entry.committed += 1
        self.stats.reclaim_deferred += 1
        return ReclaimDecision.KEEP

    def flush_to_committed(self) -> list[int]:
        """Fall back to the committed image after a squash-at-commit pipeline flush."""
        self.stats.flush_recoveries += 1
        freed: list[int] = []
        for preg in list(self._entries):
            entry = self._entries[preg]
            entry.referenced = entry.referenced_committed
            if entry.committed > entry.referenced:
                # The last committed overwrite should have freed the register
                # but was held back by a (now squashed) speculative sharer.
                freed.append(preg)
                self._free_entry(preg)
            elif entry.referenced == 0 and entry.committed == 0:
                # Only speculative sharers existed; the entry is no longer needed.
                self._free_entry(preg)
        self.stats.registers_freed_on_flush += len(freed)
        return freed

    # -- branch checkpoint interface (Section 4.3.1 / 4.3.2) -----------------------

    def checkpoint(self) -> int:
        """Snapshot the ``referenced`` fields; returns a checkpoint identifier."""
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        self._checkpoints[checkpoint_id] = {
            preg: entry.referenced for preg, entry in self._entries.items()
        }
        return checkpoint_id

    def restore(self, checkpoint_id: int) -> list[int]:
        """Restore a checkpoint; returns the physical registers freed during recovery.

        Entries freed since the checkpoint was taken have had their
        checkpointed ``referenced`` gang-reset to zero (see
        :meth:`_free_entry`), so restoring never resurrects stale sharers.
        The restored checkpoint and every younger one are discarded.
        """
        if checkpoint_id not in self._checkpoints:
            raise KeyError(f"unknown ISRB checkpoint {checkpoint_id}")
        snapshot = self._checkpoints[checkpoint_id]
        freed: list[int] = []
        for preg in list(self._entries):
            entry = self._entries[preg]
            restored = snapshot.get(preg, 0)
            entry.referenced = restored
            if entry.committed > entry.referenced:
                freed.append(preg)
                self._free_entry(preg)
            elif entry.referenced == 0 and entry.committed == 0:
                self._free_entry(preg)
        for other_id in list(self._checkpoints):
            if other_id >= checkpoint_id:
                del self._checkpoints[other_id]
        self.stats.flush_recoveries += 1
        self.stats.registers_freed_on_flush += len(freed)
        return freed

    # -- introspection ------------------------------------------------------------

    def entry(self, preg: int) -> IsrbEntry | None:
        """Return the live entry for ``preg`` (or ``None``); used by tests."""
        return self._entries.get(preg)

    def is_tracked(self, preg: int) -> bool:
        """Return ``True`` while ``preg`` has an ISRB entry."""
        return preg in self._entries

    def occupancy(self) -> int:
        """Number of live ISRB entries."""
        return len(self._entries)

    def storage_bits(self) -> int:
        """Main-structure storage: per entry, a register tag plus the two counters.

        With 32 entries, 3-bit counters and a 9-bit physical register
        identifier this is the 480-bit figure of Section 6.3.
        """
        entries = self.capacity if self.capacity is not None else self.config.num_phys_regs
        counter_bits = self.config.counter_bits if self.config.counter_bits is not None else 32
        tag_bits = max((self.config.num_phys_regs - 1).bit_length(), 1)
        return entries * (tag_bits + 2 * counter_bits)

    def checkpoint_bits(self) -> int:
        """Per-checkpoint storage: the ``referenced`` field of every entry (Section 4.3.3)."""
        entries = self.capacity if self.capacity is not None else self.config.num_phys_regs
        counter_bits = self.config.counter_bits if self.config.counter_bits is not None else 32
        return entries * counter_bits

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the live entries (see :meth:`SharingTracker.to_snapshot`).

        Branch checkpoints are transient speculative state and are not part
        of the snapshot; a drained pipeline holds none.
        """
        return {
            "scheme": self.name,
            "entries": {preg: [e.referenced, e.committed, e.referenced_committed]
                        for preg, e in self._entries.items()},
        }

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the live entries with a :meth:`to_snapshot` image."""
        if snapshot.get("scheme") != self.name:
            raise ValueError(
                f"tracker snapshot of scheme {snapshot.get('scheme')!r} cannot be "
                f"restored into {self.name!r}")
        self._entries = {
            int(preg): IsrbEntry(referenced=ref, committed=com, referenced_committed=refcom)
            for preg, (ref, com, refcom) in snapshot["entries"].items()
        }
        self._checkpoints = {}
        self._next_checkpoint_id = 0

    # -- internals ----------------------------------------------------------------

    def _free_entry(self, preg: int) -> None:
        """Release an entry and gang-reset its slot in every live checkpoint."""
        del self._entries[preg]
        self.stats.entries_freed += 1
        for snapshot in self._checkpoints.values():
            if preg in snapshot:
                snapshot[preg] = 0
