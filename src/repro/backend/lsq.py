"""Load and store queues: forwarding, ordering and violation detection.

The Table-1 machine has a 72-entry load queue and a 48-entry store queue
with a 4-cycle store-to-load forwarding latency.  Following the paper's
methodology section, only loads *fully contained* in an in-flight store can
forward from the store queue; partially overlapping loads wait for the
store to write back.

Memory-order violations are detected the gem5 way: when a store computes
its address, any younger load that already executed against an overlapping
address (without having forwarded from that store) is flagged; the flag
turns into a trap -- a full pipeline flush -- when the load reaches the
commit stage.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.backend.inflight import InflightOp


class ForwardingState(enum.Enum):
    """Relationship between a load and the in-flight stores older than it."""

    NO_CONFLICT = "no_conflict"
    FORWARD = "forward"            # fully contained in an executed older store
    STORE_NOT_READY = "not_ready"  # fully contained, but the store has not executed
    PARTIAL_OVERLAP = "partial"    # overlapping but not contained: must wait


@dataclass(slots=True)
class ForwardingDecision:
    """Result of a store-queue search for a load."""

    state: ForwardingState
    store: InflightOp | None = None


class LoadStoreQueue:
    """The combined load queue / store queue model."""

    __slots__ = ("lq_capacity", "sq_capacity", "_loads", "_stores", "peak_lq", "peak_sq")

    def __init__(self, lq_capacity: int = 72, sq_capacity: int = 48) -> None:
        if lq_capacity < 1 or sq_capacity < 1:
            raise ValueError("load/store queue capacities must be >= 1")
        self.lq_capacity = lq_capacity
        self.sq_capacity = sq_capacity
        self._loads: deque[InflightOp] = deque()
        self._stores: deque[InflightOp] = deque()
        self.peak_lq = 0
        self.peak_sq = 0

    # -- capacity -----------------------------------------------------------------

    def lq_full(self) -> bool:
        """``True`` when no load can be dispatched."""
        return len(self._loads) >= self.lq_capacity

    def sq_full(self) -> bool:
        """``True`` when no store can be dispatched."""
        return len(self._stores) >= self.sq_capacity

    # -- dispatch / removal -------------------------------------------------------

    def add(self, entry: InflightOp) -> None:
        """Insert a load or store at dispatch (program order is preserved)."""
        if entry.is_load:
            if self.lq_full():
                raise OverflowError("load queue is full")
            self._loads.append(entry)
            self.peak_lq = max(self.peak_lq, len(self._loads))
        elif entry.is_store:
            if self.sq_full():
                raise OverflowError("store queue is full")
            self._stores.append(entry)
            self.peak_sq = max(self.peak_sq, len(self._stores))
        else:
            raise ValueError("only loads and stores belong in the LSQ")

    def retire(self, loads: int, stores: int) -> None:
        """Remove the ``loads`` oldest loads and ``stores`` oldest stores.

        Commit is in program order, so a committing load or store is always
        the oldest in its queue.
        """
        for _ in range(loads):
            self._loads.popleft()
        for _ in range(stores):
            self._stores.popleft()

    def squash_all(self) -> None:
        """Empty both queues (commit-stage flush)."""
        self._loads.clear()
        self._stores.clear()

    # -- forwarding and ordering --------------------------------------------------

    def forwarding_for(self, load: InflightOp) -> ForwardingDecision:
        """Classify the youngest older store overlapping ``load``."""
        best: InflightOp | None = None
        address = load.mem_addr
        if address is not None:
            seq = load.seq
            end = address + load.mem_size
            for store in self._stores:
                if store.seq >= seq:
                    break
                start = store.mem_addr
                if start is not None and start < end and address < start + store.mem_size:
                    best = store
        if best is None:
            return ForwardingDecision(ForwardingState.NO_CONFLICT)
        if best.mem_addr <= address and end <= best.mem_addr + best.mem_size:
            if best.issued and best.completed:
                return ForwardingDecision(ForwardingState.FORWARD, best)
            return ForwardingDecision(ForwardingState.STORE_NOT_READY, best)
        return ForwardingDecision(ForwardingState.PARTIAL_OVERLAP, best)

    def violating_loads(self, store: InflightOp) -> list[InflightOp]:
        """Younger loads that already executed against an address this store overlaps.

        Called when ``store`` executes (its address becomes known).  Loads
        that forwarded from this very store are innocent; everything else
        read stale data and must trap at commit.
        """
        violators: list[InflightOp] = []
        start = store.mem_addr
        if start is None:
            return violators
        seq = store.seq
        end = start + store.mem_size
        for load in self._loads:
            if load.seq <= seq or not load.issued:
                continue
            address = load.mem_addr
            if address is None or not (start < address + load.mem_size and address < end):
                continue
            if load.stlf_forwarded and load.issue_cycle >= store.complete_cycle >= 0:
                continue
            violators.append(load)
        return violators

    def loads(self) -> deque[InflightOp]:
        """The loads in the queue, oldest first (the queue's own storage).

        Callers must not mutate it; a squash empties it in place, so a
        reference stays current.
        """
        return self._loads

    def stores(self) -> deque[InflightOp]:
        """The stores in the queue, oldest first (see :meth:`loads`)."""
        return self._stores

    def __repr__(self) -> str:
        return (f"LoadStoreQueue(lq={len(self._loads)}/{self.lq_capacity}, "
                f"sq={len(self._stores)}/{self.sq_capacity})")
