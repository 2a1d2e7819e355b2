"""A per-PC stride prefetcher.

Table 1 attaches a stride prefetcher (degree 8, distance 1) to the L2.  The
prefetcher watches the demand-access stream, learns a stride per load/store
PC and, once the stride has been confirmed twice, emits up to ``degree``
prefetch addresses ahead of the demand access.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _StrideEntry:
    """Training state for one instruction address."""

    last_address: int = 0
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Reference-prediction-table style stride prefetcher."""

    def __init__(self, table_entries: int = 256, degree: int = 8, distance: int = 1,
                 min_confidence: int = 2) -> None:
        if table_entries <= 0 or degree <= 0 or distance <= 0:
            raise ValueError("prefetcher parameters must be positive")
        self.table_entries = table_entries
        self.degree = degree
        self.distance = distance
        self.min_confidence = min_confidence
        self._table: dict[int, _StrideEntry] = {}
        self.prefetches_issued = 0
        self.trainings = 0

    def train(self, pc: int, address: int) -> list[int]:
        """Observe a demand access and return the list of addresses to prefetch."""
        self.trainings += 1
        index = (pc >> 2) % self.table_entries
        entry = self._table.get(index)
        if entry is None:
            self._table[index] = _StrideEntry(last_address=address)
            return []
        stride = address - entry.last_address
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_address = address
        if entry.confidence < self.min_confidence or entry.stride == 0:
            return []
        prefetches = [
            address + entry.stride * (self.distance + step)
            for step in range(self.degree)
        ]
        self.prefetches_issued += len(prefetches)
        return prefetches

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the training table (last address, stride, confidence per entry)."""
        return {index: [e.last_address, e.stride, e.confidence]
                for index, e in self._table.items()}

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the training table with a :meth:`to_snapshot` image."""
        self._table = {
            int(index): _StrideEntry(last_address=last, stride=stride, confidence=conf)
            for index, (last, stride, conf) in snapshot.items()
        }

    def __repr__(self) -> str:
        return (f"StridePrefetcher(entries={self.table_entries}, degree={self.degree}, "
                f"distance={self.distance})")
