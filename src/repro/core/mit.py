"""The Multiple Instantiation Table (MIT) of Raikin et al. (Intel patent).

The MIT is a small fully-associative structure allocated when a move is
eliminated.  Each entry holds a bit-vector over *architectural* registers:
a set bit means that architectural register currently maps to the tracked
physical register.  A bit is cleared when the corresponding architectural
register is redefined (i.e. when the redefining instruction commits), and
the physical register is freed when the whole vector is empty.

Because the algorithm is based on architectural names it only works when
*both* names sharing the register are known at the sharing point -- true
for move elimination (source and destination are visible in the move), but
not for SMB, where the store's source architectural register may already
have been re-renamed when the load is processed (Section 4.2).  The MIT
therefore rejects memory-bypass sharing requests, which is exactly the
limitation the paper uses it to illustrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tracker import ReclaimDecision, SharingTracker, TrackerConfig


@dataclass
class MitEntry:
    """One MIT entry: committed and pending architectural-register sets."""

    committed_archs: set[int] = field(default_factory=set)
    pending_pairs: list[tuple[int, int]] = field(default_factory=list)
    deferred_overwrites: int = 0

class MultipleInstantiationTable(SharingTracker):
    """Architectural-name based sharing tracker (move elimination only)."""

    name = "mit"
    supports_memory_bypass = False
    supports_move_elimination = True
    checkpoint_recovery = True

    def __init__(self, config: TrackerConfig | None = None) -> None:
        super().__init__(config or TrackerConfig(scheme="mit", entries=8))
        self._entries: dict[int, MitEntry] = {}

    # -- SharingTracker interface -------------------------------------------------

    def try_share(self, preg: int, *, dest_arch: int, src_arch: int | None = None,
                  memory_bypass: bool = False) -> bool:
        """Record an eliminated move; SMB requests are always rejected."""
        self.stats.share_requests += 1
        if memory_bypass:
            self.stats.shares_rejected_unsupported += 1
            return False
        if src_arch is None:
            raise ValueError("the MIT needs the move's source architectural register")
        entry = self._entries.get(preg)
        if entry is None:
            if self.config.entries is not None and len(self._entries) >= self.config.entries:
                self.stats.shares_rejected_full += 1
                return False
            entry = MitEntry()
            self._entries[preg] = entry
        entry.pending_pairs.append((src_arch, dest_arch))
        self.stats.shares_granted += 1
        self._note_occupancy()
        return True

    def on_share_commit(self, preg: int) -> None:
        """The eliminated move committed: both of its architectural names are now architectural."""
        entry = self._entries.get(preg)
        if entry is None or not entry.pending_pairs:
            return
        src_arch, dest_arch = entry.pending_pairs.pop(0)
        entry.committed_archs.add(src_arch)
        entry.committed_archs.add(dest_arch)

    def reclaim(self, preg: int, arch_reg: int) -> ReclaimDecision:
        """Clear the redefined architectural register's bit; free when the vector empties."""
        self.stats.reclaim_checks += 1
        entry = self._entries.get(preg)
        if entry is None:
            return ReclaimDecision.FREE
        entry.committed_archs.discard(arch_reg)
        if not entry.committed_archs and not entry.pending_pairs:
            del self._entries[preg]
            self.stats.entries_freed += 1
            return ReclaimDecision.FREE
        entry.deferred_overwrites += 1
        self.stats.reclaim_deferred += 1
        return ReclaimDecision.KEEP

    def flush_to_committed(self) -> list[int]:
        """Drop in-flight eliminated moves; release registers their sharing was holding back."""
        self.stats.flush_recoveries += 1
        freed: list[int] = []
        for preg in list(self._entries):
            entry = self._entries[preg]
            entry.pending_pairs.clear()
            if not entry.committed_archs:
                if entry.deferred_overwrites:
                    freed.append(preg)
                del self._entries[preg]
                self.stats.entries_freed += 1
        self.stats.registers_freed_on_flush += len(freed)
        return freed

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the live entries (see :meth:`SharingTracker.to_snapshot`).

        ``pending_pairs`` (in-flight eliminated moves) are empty with the
        pipeline drained but are captured anyway for generality.
        """
        return {
            "scheme": self.name,
            "entries": {
                preg: {
                    "committed_archs": sorted(entry.committed_archs),
                    "pending_pairs": [list(pair) for pair in entry.pending_pairs],
                    "deferred_overwrites": entry.deferred_overwrites,
                }
                for preg, entry in self._entries.items()
            },
        }

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the live entries with a :meth:`to_snapshot` image."""
        if snapshot.get("scheme") != self.name:
            raise ValueError(
                f"tracker snapshot of scheme {snapshot.get('scheme')!r} cannot be "
                f"restored into {self.name!r}")
        self._entries = {
            int(preg): MitEntry(
                committed_archs=set(data["committed_archs"]),
                pending_pairs=[tuple(pair) for pair in data["pending_pairs"]],
                deferred_overwrites=data["deferred_overwrites"],
            )
            for preg, data in snapshot["entries"].items()
        }

    # -- introspection ------------------------------------------------------------

    def is_tracked(self, preg: int) -> bool:
        """Return ``True`` while ``preg`` has a MIT entry."""
        return preg in self._entries

    def occupancy(self) -> int:
        """Number of live MIT entries."""
        return len(self._entries)

    def storage_bits(self) -> int:
        """Per entry: a physical register tag plus one bit per architectural register."""
        entries = self.config.entries if self.config.entries is not None else 8
        tag_bits = max((self.config.num_phys_regs - 1).bit_length(), 1)
        return entries * (tag_bits + self.config.num_arch_regs)

    def checkpoint_bits(self) -> int:
        """Per checkpoint: the architectural bit-vector of every entry (Section 4.2)."""
        entries = self.config.entries if self.config.entries is not None else 8
        return entries * self.config.num_arch_regs
