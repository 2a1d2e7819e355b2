"""Issue queue and functional unit pools.

Table 1 models a unified 60-entry issue queue and a 6-wide issue stage
feeding: four 1-cycle ALUs, one non-pipelined integer multiply/divide unit
(3 / 25 cycles), two 3-cycle FP units, two non-pipelined FP multiply/divide
units (5 / 10 cycles), two load ports and one store port.

The issue queue only counts its occupancy: the core model's issue stage
selects oldest first from an event-driven ready list -- an instruction
joins it when its last source operand writes back, and a load that waits
on an older store joins it again when that store writes back -- subject
to the issue width, memory-dependence constraints and functional unit
availability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if cycle != self._current_cycle:
            self._current_cycle = cycle
            self._issued_this_cycle = 0
        if self._issued_this_cycle >= self.count:
            return False
        return self.pipelined or min(self._busy_until) <= cycle

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
    """A unified issue queue, modelled by its occupancy.

    The core's scheduler holds the queued instructions themselves in its
    wakeup lists; the queue counts what was dispatched into it and issued
    out of it, which is all the rename stage's capacity check and the
    ``iq_peak_occupancy`` statistic need.
    """

    __slots__ = ("capacity", "occupancy", "peak_occupancy")

    def __init__(self, capacity: int = 60) -> None:
        if capacity < 1:
            raise ValueError("issue queue capacity must be >= 1")
        self.capacity = capacity
        #: Instructions dispatched and not yet issued.
        self.occupancy = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return self.occupancy

    def note_dispatched(self, dispatched: int) -> None:
        """Account for ``dispatched`` instructions entering the queue."""
        occupancy = self.occupancy + dispatched
        if occupancy > self.capacity:
            raise OverflowError("issue queue is full")
        self.occupancy = occupancy
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def note_issued(self, issued: int) -> None:
        """Account for ``issued`` instructions leaving the queue."""
        self.occupancy -= issued

    def clear(self) -> None:
        """Empty the queue (commit-stage flush)."""
        self.occupancy = 0

    def __repr__(self) -> str:
        return f"IssueQueue(capacity={self.capacity}, occupancy={self.occupancy})"
