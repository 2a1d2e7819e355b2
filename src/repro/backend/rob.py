"""The reorder buffer, including the ``release_head`` pointer for lazy reclaim.

The ROB holds instructions from dispatch until commit.  Section 3.3 of the
paper adds a third pointer, ``release_head``, between the commit head and
the tail: committed entries between ``release_head`` and the head keep
their data (in particular their destination physical register identifier),
which lets SMB bypass from *recently committed* instructions, and the
physical registers of the architectural mappings they overwrote are only
reclaimed when the post-commit release logic walks them (triggered when the
free list runs low or the ROB fills up).

With lazy reclaim disabled (the default), entries are released immediately
at commit and reclaim happens in the commit stage, which is the paper's
baseline behaviour.
"""

from __future__ import annotations

from collections import deque

from repro.backend.inflight import InflightOp


class ReorderBuffer:
    """An in-order window of in-flight (plus optionally retained committed) micro-ops."""

    __slots__ = ("capacity", "lazy_reclaim", "_inflight", "_retained", "_by_seq",
                 "peak_occupancy")

    def __init__(self, capacity: int = 192, lazy_reclaim: bool = False) -> None:
        if capacity < 1:
            raise ValueError("ROB capacity must be >= 1")
        self.capacity = capacity
        self.lazy_reclaim = lazy_reclaim
        self._inflight: deque[InflightOp] = deque()
        self._retained: deque[InflightOp] = deque()
        self._by_seq: dict[int, InflightOp] = {}
        self.peak_occupancy = 0

    # -- occupancy ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._inflight)

    def occupancy(self) -> int:
        """Entries currently holding state (in-flight plus retained committed ones)."""
        return len(self._inflight) + len(self._retained)

    def free_slots(self) -> int:
        """Number of instructions that can still be dispatched."""
        return self.capacity - len(self._inflight) - len(self._retained)

    def retained_count(self) -> int:
        """Number of committed entries not yet released (lazy reclaim only)."""
        return len(self._retained)

    # -- dispatch / commit --------------------------------------------------------

    def append(self, entry: InflightOp) -> None:
        """Dispatch an instruction into the ROB."""
        occupancy = len(self._inflight) + len(self._retained)
        if occupancy >= self.capacity:
            raise OverflowError("reorder buffer is full")
        self._inflight.append(entry)
        self._by_seq[entry.seq] = entry
        if occupancy + 1 > self.peak_occupancy:
            self.peak_occupancy = occupancy + 1

    def head(self) -> InflightOp | None:
        """The oldest in-flight instruction (``None`` when the window is empty)."""
        return self._inflight[0] if self._inflight else None

    def window(self) -> deque[InflightOp]:
        """The in-flight instructions, oldest first (the ROB's own storage).

        Exposed for the commit stage, which reads the head from it; callers
        must not mutate it -- they commit with :meth:`retire`.  A squash
        empties it in place, so a reference stays current.
        """
        return self._inflight

    def retire(self, count: int) -> None:
        """Commit the ``count`` oldest instructions.

        With lazy reclaim the entries are *retained*: they keep occupying
        ROB space and stay reachable for SMB until :meth:`pop_retained`
        releases them.
        """
        inflight = self._inflight
        if self.lazy_reclaim:
            retained = self._retained
            for _ in range(count):
                retained.append(inflight.popleft())
        else:
            by_seq = self._by_seq
            for _ in range(count):
                del by_seq[inflight.popleft().seq]

    def pop_retained(self) -> InflightOp | None:
        """Release the oldest retained committed entry (lazy reclaim walk)."""
        if not self._retained:
            return None
        entry = self._retained.popleft()
        entry.released = True
        del self._by_seq[entry.seq]
        return entry

    # -- lookups ------------------------------------------------------------------

    def lookup(self, seq: int) -> InflightOp | None:
        """Find a reachable instruction by sequence number.

        Reachable means in flight, or committed-but-retained when lazy
        reclaim keeps the entry's state valid (Section 3.3).
        """
        return self._by_seq.get(seq)

    def retained(self) -> deque[InflightOp]:
        """The retained committed entries, oldest first."""
        return self._retained

    # -- squash -------------------------------------------------------------------

    def squash_all_inflight(self) -> list[InflightOp]:
        """Remove every in-flight instruction (commit-stage flush); returns them."""
        squashed = list(self._inflight)
        for entry in squashed:
            del self._by_seq[entry.seq]
        self._inflight.clear()
        return squashed

    def __repr__(self) -> str:
        return (f"ReorderBuffer(capacity={self.capacity}, inflight={len(self._inflight)}, "
                f"retained={len(self._retained)})")
