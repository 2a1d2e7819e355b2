"""Issue queue and functional unit pools.

Table 1 models a unified 60-entry issue queue and a 6-wide issue stage
feeding: four 1-cycle ALUs, one non-pipelined integer multiply/divide unit
(3 / 25 cycles), two 3-cycle FP units, two non-pipelined FP multiply/divide
units (5 / 10 cycles), two load ports and one store port.

The issue queue holds dispatched instructions oldest first; the core
model's issue stage scans it each cycle and selects ready instructions
subject to the issue width, operand readiness, memory-dependence
constraints and functional unit availability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.inflight import InflightOp
from repro.isa.opcodes import OpClass


class FunctionalUnitPool:
    """A pool of identical functional units.

    Pipelined pools accept up to ``count`` new operations per cycle.
    Non-pipelined pools additionally keep each unit busy for the full
    latency of the operation it accepted.
    """

    __slots__ = ("name", "count", "pipelined", "_issued_this_cycle",
                 "_current_cycle", "_busy_until", "operations")

    def __init__(self, name: str, count: int, pipelined: bool = True) -> None:
        if count < 1:
            raise ValueError(f"functional unit pool {name!r} needs at least one unit")
        self.name = name
        self.count = count
        self.pipelined = pipelined
        self._issued_this_cycle = 0
        self._current_cycle = -1
        self._busy_until = [0] * count
        self.operations = 0

    def _roll_cycle(self, cycle: int) -> None:
        if cycle != self._current_cycle:
            self._current_cycle = cycle
            self._issued_this_cycle = 0

    def can_accept(self, cycle: int) -> bool:
        """Can one more operation start on this pool at ``cycle``?"""
        self._roll_cycle(cycle)
        if self._issued_this_cycle >= self.count:
            return False
        if self.pipelined:
            return True
        return any(busy <= cycle for busy in self._busy_until)

    def next_free_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which one more operation could start.

        Used by the event-driven run loop's next-event computation: a pool
        must never *under*-report this bound (skipping past the true free
        cycle would change timing), but reporting ``cycle`` itself is always
        safe (the caller just re-evaluates).  Pipelined pools accept every
        cycle once the per-cycle issue counter rolls over, so their bound is
        at most the next cycle.
        """
        self._roll_cycle(cycle)
        if self.pipelined:
            return cycle if self._issued_this_cycle < self.count else cycle + 1
        earliest = min(self._busy_until)
        if earliest <= cycle:
            return cycle if self._issued_this_cycle < self.count else cycle + 1
        return earliest

    def accept(self, cycle: int, latency: int) -> None:
        """Reserve a unit for an operation of the given latency starting at ``cycle``."""
        self._roll_cycle(cycle)
        if not self.can_accept(cycle):
            raise RuntimeError(f"functional unit pool {self.name!r} cannot accept at {cycle}")
        self._issued_this_cycle += 1
        self.operations += 1
        if not self.pipelined:
            for index, busy in enumerate(self._busy_until):
                if busy <= cycle:
                    self._busy_until[index] = cycle + latency
                    break

    def __repr__(self) -> str:
        kind = "pipelined" if self.pipelined else "non-pipelined"
        return f"FunctionalUnitPool({self.name}, x{self.count}, {kind})"


@dataclass
class FunctionalUnits:
    """The full set of functional unit pools of the Table-1 machine."""

    int_alu: FunctionalUnitPool = field(
        default_factory=lambda: FunctionalUnitPool("int_alu", 4))
    int_muldiv: FunctionalUnitPool = field(
        default_factory=lambda: FunctionalUnitPool("int_muldiv", 1, pipelined=False))
    fp_alu: FunctionalUnitPool = field(
        default_factory=lambda: FunctionalUnitPool("fp_alu", 2))
    fp_muldiv: FunctionalUnitPool = field(
        default_factory=lambda: FunctionalUnitPool("fp_muldiv", 2, pipelined=False))
    load_ports: FunctionalUnitPool = field(
        default_factory=lambda: FunctionalUnitPool("load_port", 2))
    store_ports: FunctionalUnitPool = field(
        default_factory=lambda: FunctionalUnitPool("store_port", 1))

    def pool_for(self, op_class: OpClass) -> FunctionalUnitPool:
        """The pool an operation of the given class executes on."""
        if op_class in (OpClass.INT_ALU, OpClass.INT_MOVE, OpClass.BRANCH, OpClass.NOP):
            return self.int_alu
        if op_class in (OpClass.INT_MUL, OpClass.INT_DIV):
            return self.int_muldiv
        if op_class in (OpClass.FP_ALU, OpClass.FP_MOVE):
            return self.fp_alu
        if op_class is OpClass.FP_MULDIV:
            return self.fp_muldiv
        if op_class is OpClass.LOAD:
            return self.load_ports
        if op_class is OpClass.STORE:
            return self.store_ports
        raise ValueError(f"no functional unit pool for {op_class}")


class IssueQueue:
    """A unified, age-ordered issue queue.

    Occupancy is tracked by a live-entry counter (``_live``) rather than
    the backing list's length: the core's event-driven scheduler accounts
    for selections with :meth:`note_issued` and already-issued entries
    linger in the list until an amortized compaction, so no per-cycle
    rebuild of the whole queue is needed.  Every accessor that exposes the
    entries themselves compacts first, preserving the historical "live
    entries, oldest first" contract.
    """

    __slots__ = ("capacity", "_entries", "_live", "peak_occupancy", "issued_total")

    def __init__(self, capacity: int = 60) -> None:
        if capacity < 1:
            raise ValueError("issue queue capacity must be >= 1")
        self.capacity = capacity
        self._entries: list[InflightOp] = []
        self._live = 0
        self.peak_occupancy = 0
        self.issued_total = 0

    def __len__(self) -> int:
        return self._live

    def is_full(self) -> bool:
        """``True`` when no instruction can be dispatched into the queue."""
        return self._live >= self.capacity

    def free_slots(self) -> int:
        """Number of instructions that can still be dispatched."""
        return self.capacity - self._live

    def add(self, entry: InflightOp) -> None:
        """Dispatch an instruction into the queue."""
        if self._live >= self.capacity:
            raise OverflowError("issue queue is full")
        self._entries.append(entry)
        self._live += 1
        if self._live > self.peak_occupancy:
            self.peak_occupancy = self._live

    def _compact(self) -> None:
        self._entries = [entry for entry in self._entries if not entry.issued]

    def entries(self) -> list[InflightOp]:
        """The queued instructions, oldest first (the queue's own storage).

        Exposed for the pipeline's inlined issue scan; callers must not
        mutate the list directly -- they account for the entries they
        issued with :meth:`note_issued`.
        """
        if self._live != len(self._entries):
            self._compact()
        return self._entries

    def note_issued(self, issued: int) -> None:
        """Account for entries an external scheduler issued out of the queue.

        The issued entries stay in the backing list until more than half of
        it is stale, when one compaction pass drops them -- amortized O(1)
        per issue instead of a full rebuild per issuing cycle.
        """
        self._live -= issued
        self.issued_total += issued
        stale = len(self._entries) - self._live
        if stale > self._live:
            self._compact()

    def remove(self, entries: list[InflightOp]) -> None:
        """Remove specific entries (used when squashing)."""
        if not entries:
            return
        doomed = set(id(entry) for entry in entries)
        self._entries = [entry for entry in self.entries()
                         if id(entry) not in doomed]
        self._live = len(self._entries)

    def clear(self) -> None:
        """Empty the queue (commit-stage flush)."""
        self._entries.clear()
        self._live = 0

    def __repr__(self) -> str:
        return f"IssueQueue(capacity={self.capacity}, occupancy={self._live})"
