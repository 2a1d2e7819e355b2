"""A set-associative branch target buffer.

The BTB supplies the target of taken branches at fetch time.  Table 1 of the
paper uses a 2-way, 4K-entry BTB.  In the trace-driven model a BTB miss on a
taken branch costs a front-end redirect bubble (the target only becomes
known once the branch is decoded), which the pipeline charges as a small
fixed penalty.
"""

from __future__ import annotations


class BranchTargetBuffer:
    """A ``ways``-associative BTB with true-LRU replacement inside each set."""

    def __init__(self, entries: int = 4096, ways: int = 2) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("BTB entries and ways must be positive")
        if entries % ways:
            raise ValueError("BTB entries must be a multiple of the associativity")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        # Each set maps pc -> target and keeps insertion-ordered keys for LRU.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) % self.sets

    def lookup(self, pc: int) -> int | None:
        """Return the predicted target for the branch at ``pc``, or ``None`` on a miss."""
        entry_set = self._sets[self._set_index(pc)]
        target = entry_set.get(pc)
        if target is None:
            self.misses += 1
            return None
        # Refresh LRU position.
        del entry_set[pc]
        entry_set[pc] = target
        self.hits += 1
        return target

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target of the branch at ``pc``."""
        entry_set = self._sets[self._set_index(pc)]
        if pc in entry_set:
            del entry_set[pc]
        elif len(entry_set) >= self.ways:
            oldest = next(iter(entry_set))
            del entry_set[oldest]
        entry_set[pc] = target

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> list:
        """Serialise every set as ``[pc, target]`` pairs in LRU order (oldest first)."""
        return [[[pc, target] for pc, target in entry_set.items()]
                for entry_set in self._sets]

    def restore_snapshot(self, snapshot: list) -> None:
        """Overwrite the BTB contents with a :meth:`to_snapshot` image."""
        if len(snapshot) != self.sets:
            raise ValueError("BTB snapshot geometry does not match this BTB")
        self._sets = [dict(rows) for rows in snapshot]

    def storage_bits(self, target_bits: int = 32, tag_bits: int = 20) -> int:
        """Approximate storage requirement in bits."""
        return self.entries * (target_bits + tag_bits)

    def __repr__(self) -> str:
        return f"BranchTargetBuffer(entries={self.entries}, ways={self.ways})"
