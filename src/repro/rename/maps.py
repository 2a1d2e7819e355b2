"""Rename map, commit rename map and free list.

Physical registers are numbered globally: integer registers occupy
``[0, num_int_pregs)`` and floating-point registers occupy
``[num_int_pregs, num_int_pregs + num_fp_pregs)``.  Architectural registers
use their flat index (:attr:`repro.isa.registers.ArchReg.flat_index`).

Recovery model
--------------
The core model only squashes *at the commit stage* (memory-order traps and
bypass validation failures) -- wrong-path instructions past a mispredicted
branch are never renamed in a trace-driven simulation, so branch recovery
needs no state repair, only its timing cost.  A commit-time squash restores
the Rename Map from the Commit Rename Map and the speculative free list
from the committed free set, exactly the recovery path described in
Section 4.1 for squashes taken at Commit.
"""

from __future__ import annotations

from collections import deque

from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, ArchReg, RegClass


class RenameMap:
    """Speculative architectural-to-physical register mappings."""

    __slots__ = ("num_arch_regs", "_map")

    def __init__(self, num_arch_regs: int = NUM_INT_REGS + NUM_FP_REGS) -> None:
        self.num_arch_regs = num_arch_regs
        self._map: list[int] = [-1] * num_arch_regs

    def lookup(self, arch: ArchReg) -> int:
        """Physical register currently mapped to ``arch``."""
        return self._map[arch.flat_index]

    def lookup_flat(self, arch_flat: int) -> int:
        """Physical register currently mapped to the flat architectural index."""
        return self._map[arch_flat]

    def define(self, arch: ArchReg, preg: int) -> int:
        """Map ``arch`` to ``preg``; returns the previous mapping."""
        index = arch.flat_index
        old = self._map[index]
        self._map[index] = preg
        return old

    def define_flat(self, arch_flat: int, preg: int) -> int:
        """Map the flat architectural index to ``preg``; returns the previous mapping."""
        old = self._map[arch_flat]
        self._map[arch_flat] = preg
        return old

    def copy_from(self, other: "RenameMap | CommitRenameMap") -> None:
        """Overwrite all mappings with those of ``other`` (flush recovery).

        The update is in place so that callers holding the :meth:`raw` list
        (the renamer's hot path does) keep seeing current mappings.
        """
        self._map[:] = other.raw()

    def raw(self) -> list[int]:
        """The underlying mapping list (flat architectural index -> preg)."""
        return self._map

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> list[int]:
        """Serialise the mappings (flat architectural index -> preg)."""
        return list(self._map)

    def restore_snapshot(self, snapshot: list[int]) -> None:
        """Overwrite all mappings with a :meth:`to_snapshot` image (in place)."""
        if len(snapshot) != self.num_arch_regs:
            raise ValueError("rename map snapshot size does not match this map")
        self._map[:] = snapshot

    def __repr__(self) -> str:
        return f"RenameMap({self._map})"


class CommitRenameMap(RenameMap):
    """Non-speculative (committed) architectural-to-physical mappings."""

    __slots__ = ()


class FreeList:
    """Free physical registers of one register class, with a committed image.

    The speculative free list is consumed by the renamer; the committed set
    only changes at commit (a register freed by the reclaim logic joins
    both, a register whose allocating instruction commits leaves the
    committed set).  A commit-time flush simply re-derives the speculative
    list from the committed set.
    """

    __slots__ = ("reg_class", "first_preg", "count", "_free", "_committed_free",
                 "allocations", "frees", "empty_stalls")

    def __init__(self, reg_class: RegClass, first_preg: int, count: int,
                 initially_mapped: int) -> None:
        if initially_mapped > count:
            raise ValueError("cannot map more architectural registers than physical registers")
        self.reg_class = reg_class
        self.first_preg = first_preg
        self.count = count
        free = list(range(first_preg + initially_mapped, first_preg + count))
        self._free: deque[int] = deque(free)
        self._committed_free: set[int] = set(free)
        self.allocations = 0
        self.frees = 0
        self.empty_stalls = 0

    # -- speculative side ---------------------------------------------------------

    def available(self) -> int:
        """Number of registers available for speculative allocation."""
        return len(self._free)

    def is_empty(self) -> bool:
        """``True`` when no register can be allocated."""
        return not self._free

    def allocate(self) -> int:
        """Pop a free register for a newly renamed destination."""
        if not self._free:
            self.empty_stalls += 1
            raise IndexError(f"free list for {self.reg_class.value} registers is empty")
        self.allocations += 1
        return self._free.popleft()

    # -- committed side -----------------------------------------------------------

    def on_commit_allocate(self, preg: int) -> None:
        """The instruction that allocated ``preg`` committed: it is no longer free."""
        self._committed_free.discard(preg)

    def release(self, preg: int) -> None:
        """The reclaim logic freed ``preg`` at commit: both images gain it."""
        if preg in self._committed_free:
            raise ValueError(f"physical register {preg} freed twice")
        self._free.append(preg)
        self._committed_free.add(preg)
        self.frees += 1

    def restore_to_committed(self) -> None:
        """Commit-time flush: the speculative list becomes the committed image."""
        self._free = deque(sorted(self._committed_free))

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise both free images, preserving the speculative allocation order.

        The order of the speculative deque matters: it determines which
        physical register the next rename receives, so restoring it exactly
        is what makes a resumed window bit-identical to a continuing core.
        """
        return {
            "free": list(self._free),
            "committed_free": sorted(self._committed_free),
        }

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite both free images with a :meth:`to_snapshot` image."""
        for preg in snapshot["free"]:
            if not self.contains(preg):
                raise ValueError(
                    f"free-list snapshot register {preg} outside this class's range")
        self._free = deque(snapshot["free"])
        self._committed_free = set(snapshot["committed_free"])

    # -- introspection ------------------------------------------------------------

    def contains(self, preg: int) -> bool:
        """``True`` when ``preg`` belongs to this register class."""
        return self.first_preg <= preg < self.first_preg + self.count

    def committed_free_set(self) -> set[int]:
        """A copy of the committed free set (used by invariant checks in tests)."""
        return set(self._committed_free)

    def speculative_free_set(self) -> set[int]:
        """A copy of the speculative free list contents."""
        return set(self._free)

    def __repr__(self) -> str:
        return (f"FreeList({self.reg_class.value}, free={len(self._free)}/"
                f"{self.count}, committed_free={len(self._committed_free)})")
