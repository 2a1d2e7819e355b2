"""The Data Dependency Table (DDT) and commit-side CSN tracking (Section 3.1).

The Instruction Distance predictor is trained entirely at commit, using two
structures:

* the **Commit Rename Map CSN fields** (:class:`CommitCsnTable`): every
  committing register-writing instruction writes its Commit Sequence
  Number (CSN) into the entry of its architectural destination register;
* the **Data Dependency Table** (:class:`DataDependencyTable`): when a
  store commits it reads the CSN of the instruction that produced its data
  from the CSN table and writes it into the DDT entry indexed by the
  store's virtual address.  When a load commits it reads that entry; the
  difference between the load's CSN and the recorded CSN is the
  *instruction distance* used to train the predictor.  To generalise SMB to
  load-load pairs the load then writes its own CSN into the entry.

The paper uses a 16K-entry DDT as the primary design point and shows that a
1K-entry, 5-bit-tag DDT loses almost nothing (Section 3.1); both are
configurations of :class:`DataDependencyTable` (``entries=None`` gives the
idealised unlimited table).
"""

from __future__ import annotations

from dataclasses import dataclass


class CommitCsnTable:
    """Commit Sequence Numbers of the most recent committed definition of each register."""

    def __init__(self, num_arch_regs: int = 32) -> None:
        self.num_arch_regs = num_arch_regs
        self._csn: list[int | None] = [None] * num_arch_regs

    def define(self, arch_flat: int, csn: int) -> None:
        """Record that the instruction with CSN ``csn`` defined ``arch_flat``."""
        self._csn[arch_flat] = csn

    def producer_of(self, arch_flat: int) -> int | None:
        """CSN of the last committed definition of ``arch_flat`` (``None`` if never defined)."""
        return self._csn[arch_flat]

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> list:
        """Serialise the per-register CSNs (``None`` for never-defined registers)."""
        return list(self._csn)

    def restore_snapshot(self, snapshot: list) -> None:
        """Overwrite the CSNs with a :meth:`to_snapshot` image."""
        if len(snapshot) != self.num_arch_regs:
            raise ValueError("CSN table snapshot size does not match this table")
        self._csn = list(snapshot)


@dataclass(frozen=True)
class DdtConfig:
    """Geometry of the Data Dependency Table.

    ``entries=None`` models the unlimited DDT; otherwise the table is
    direct-mapped on the word address with a ``tag_bits``-wide partial tag,
    as in the paper's 1K-entry / 5-bit-tag cost-reduced design point.
    """

    entries: int | None = 16384
    tag_bits: int = 14

    def __post_init__(self) -> None:
        if self.entries is not None and self.entries <= 0:
            raise ValueError("DDT entry count must be positive (or None for unlimited)")
        if self.tag_bits < 0:
            raise ValueError("tag_bits must be >= 0")


class DataDependencyTable:
    """Virtual-address-indexed table of producer CSNs."""

    def __init__(self, config: DdtConfig | None = None) -> None:
        self.config = config or DdtConfig()
        # Unlimited: a plain dict keyed by word address.
        self._unlimited: dict[int, int] = {}
        # Limited: index -> (tag, csn).
        self._table: dict[int, tuple[int, int]] = {}
        self.updates = 0
        self.lookups = 0
        self.hits = 0
        self.tag_mismatches = 0
        self.conflict_evictions = 0

    def _locate(self, address: int) -> tuple[int, int]:
        word = address >> 3
        index = word % self.config.entries
        tag = (word // self.config.entries) & ((1 << self.config.tag_bits) - 1)
        return index, tag

    def update(self, address: int, csn: int) -> None:
        """Record ``csn`` as the producer of the value at ``address``."""
        self.updates += 1
        if self.config.entries is None:
            self._unlimited[address >> 3] = csn
            return
        index, tag = self._locate(address)
        previous = self._table.get(index)
        if previous is not None and previous[0] != tag:
            self.conflict_evictions += 1
        self._table[index] = (tag, csn)

    def lookup(self, address: int) -> int | None:
        """Return the recorded producer CSN for ``address`` (``None`` on a miss)."""
        self.lookups += 1
        if self.config.entries is None:
            csn = self._unlimited.get(address >> 3)
            if csn is not None:
                self.hits += 1
            return csn
        index, tag = self._locate(address)
        entry = self._table.get(index)
        if entry is None:
            return None
        entry_tag, csn = entry
        if entry_tag != tag:
            self.tag_mismatches += 1
            return None
        self.hits += 1
        return csn

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the table contents (statistics excluded)."""
        return {
            "unlimited": dict(self._unlimited),
            "table": {index: list(entry) for index, entry in self._table.items()},
        }

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the table contents with a :meth:`to_snapshot` image."""
        self._unlimited = {int(word): csn for word, csn in snapshot["unlimited"].items()}
        self._table = {int(index): (tag, csn)
                       for index, (tag, csn) in snapshot["table"].items()}

    def storage_bits(self, csn_bits: int = 8, address_bits: int = 64) -> int:
        """Approximate storage cost in bits.

        The paper charges the unlimited/16K design with full virtual
        addresses (156KB) and the 1K-entry design with a 5-bit tag plus the
        64-bit address (8.6KB); here the cost is ``entries x (tag + csn)``
        for tagged tables and ``entries x (address + csn)`` for the
        untagged 16K-entry base design.
        """
        if self.config.entries is None:
            return len(self._unlimited) * (address_bits + csn_bits)
        per_entry = (self.config.tag_bits + csn_bits) if self.config.tag_bits \
            else (address_bits + csn_bits)
        return self.config.entries * per_entry

    def __repr__(self) -> str:
        entries = "unlimited" if self.config.entries is None else str(self.config.entries)
        return f"DataDependencyTable(entries={entries}, tag_bits={self.config.tag_bits})"
