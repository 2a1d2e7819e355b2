"""The Instruction Distance predictor (Section 3.1).

The Instruction Distance predictor sits in the front end.  Looked up with
the load's PC, the global branch history and the path history, it predicts
the *distance in committed instructions* between the load and the
instruction that produced the data the load will read.  The renamer
subtracts that distance from the load's sequence number, finds the producer
in the ROB and renames the load's destination onto the producer's physical
register.

:class:`TageDistancePredictor` is the paper's proposal: a TAGE-like
predictor with a direct-mapped base component and five partially tagged
components indexed with 2/5/11/27/64 bits of global history mixed with 16
bits of path history (about 12.2KB).

It only authorises a bypass when the entry's 4-bit confidence counter is
saturated, because a distance misprediction costs a pipeline flush while
simply not predicting costs nothing.

Like the TAGE branch predictor's, the tables are flat lists indexed by
entry -- tag, distance, confidence and valid -- one set per table, with the
base table first, so a fresh core builds no object per entry.  A lookup
takes every table's index and tag from the geometry's process-wide
:class:`~repro.common.hashing.HashMemo` with one probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.hashing import hash_memo


class DistancePrediction(NamedTuple):
    """Result of a distance lookup, carried by the load until commit-time training.

    An immutable tuple: one is built per looked-up load.
    """

    distance: int | None
    confident: bool
    provider: int
    provider_index: int
    indices: tuple[int, ...] = ()
    tags: tuple[int, ...] = ()

    @property
    def usable(self) -> bool:
        """``True`` when the prediction is confident enough to attempt a bypass."""
        return self.distance is not None and self.distance > 0 and self.confident


# ---------------------------------------------------------------------------
# TAGE-like predictor (the paper's proposal)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TageDistanceConfig:
    """Geometry of the TAGE-like distance predictor (Section 3.1, about 12.2KB)."""

    base_entries: int = 4096
    base_tag_bits: int = 5
    component_entries: tuple[int, ...] = (512, 512, 256, 128, 128)
    component_tag_bits: tuple[int, ...] = (10, 10, 11, 11, 12)
    component_history_bits: tuple[int, ...] = (2, 5, 11, 27, 64)
    path_bits: int = 16
    distance_bits: int = 8
    confidence_bits: int = 4

    def __post_init__(self) -> None:
        lengths = {len(self.component_entries), len(self.component_tag_bits),
                   len(self.component_history_bits)}
        if len(lengths) != 1:
            raise ValueError("component configuration tuples must have equal lengths")


class TageDistancePredictor:
    """TAGE-like instruction distance predictor (base + 5 tagged components).

    Table 0 is the base component and table ``c + 1`` tagged component
    ``c``; a :class:`DistancePrediction`'s ``indices`` and ``tags`` follow
    the same order, and its ``provider`` is the table number minus one
    (``-1`` for the base, ``-2`` for no provider).
    """

    name = "tage"

    def __init__(self, config: TageDistanceConfig | None = None) -> None:
        self.config = config or TageDistanceConfig()
        config = self.config
        sizes = [config.base_entries, *config.component_entries]
        self._tags = [[0] * size for size in sizes]
        self._distances = [[0] * size for size in sizes]
        self._confidences = [[0] * size for size in sizes]
        self._valid = [[False] * size for size in sizes]
        self._max_confidence = (1 << config.confidence_bits) - 1
        self._max_distance = (1 << config.distance_bits) - 1
        self._memo = hash_memo(
            tuple((history_bits, entries.bit_length() - 1, tag_bits)
                  for entries, history_bits, tag_bits in zip(
                      config.component_entries, config.component_history_bits,
                      config.component_tag_bits)),
            config.path_bits, base=(config.base_entries, config.base_tag_bits))

    # -- prediction ---------------------------------------------------------------

    def predict(self, pc: int, history: int, path: int) -> DistancePrediction:
        """Predict the instruction distance for the load at ``pc``."""
        memo = self._memo
        key = (pc & memo.pc_mask, history & memo.history_mask, path & memo.path_mask)
        hashes = memo.table.get(key)
        if hashes is None:
            hashes = memo.fill(key)
        indices, tags = hashes
        valid = self._valid
        entry_tags = self._tags
        # The longest-history matching table provides; the base (table 0)
        # only when no tagged component matches.
        provider = -1
        for table, index in enumerate(indices):
            if valid[table][index] and entry_tags[table][index] == tags[table]:
                provider = table
        if provider < 0:
            return DistancePrediction(None, False, -2, 0, indices, tags)
        index = indices[provider]
        return DistancePrediction(self._distances[provider][index],
                                  self._confidences[provider][index] >= self._max_confidence,
                                  provider - 1, index, indices, tags)

    # -- training -----------------------------------------------------------------

    def train(self, pc: int, history: int, path: int, actual_distance: int | None,
              prediction: DistancePrediction | None = None) -> None:
        """Train with the distance observed at commit (``None`` when no producer was found)."""
        if prediction is None or not prediction.indices:
            prediction = self.predict(pc, history, path)
        if actual_distance is None:
            # No identified producer: a confident provider must lose its
            # confidence, otherwise it keeps authorising doomed bypasses
            # for loads that periodically have no in-window producer.
            self._reset_provider_confidence(prediction)
            return
        actual = min(actual_distance, self._max_distance)

        table = self._provider_table(prediction)
        if table is None:
            # Nothing predicted for this load yet: seed the base component.
            self._install(0, prediction.indices[0], prediction.tags[0], actual)
            return
        index = prediction.provider_index
        confidences = self._confidences[table]
        if self._distances[table][index] == actual:
            confidences[index] = min(confidences[index] + 1, self._max_confidence)
            return
        self._distances[table][index] = actual
        confidences[index] = 0
        # TAGE-style allocation: a wrong provider promotes the pair into a
        # longer-history component so context-dependent distances separate.
        self._allocate(prediction, actual)

    def _provider_table(self, prediction: DistancePrediction) -> int | None:
        """The table whose entry provided ``prediction``, if it still holds it."""
        if prediction.provider == -2:
            return None
        table = prediction.provider + 1
        index = prediction.provider_index
        if self._valid[table][index] and self._tags[table][index] == prediction.tags[table]:
            return table
        return None

    def _reset_provider_confidence(self, prediction: DistancePrediction) -> None:
        table = self._provider_table(prediction)
        if table is not None:
            self._confidences[table][prediction.provider_index] = 0

    def punish(self, pc: int, history: int, path: int,
               prediction: DistancePrediction | None = None) -> None:
        """A bypass based on this predictor failed validation: clear the provider's confidence."""
        if prediction is None or not prediction.indices:
            prediction = self.predict(pc, history, path)
        self._reset_provider_confidence(prediction)

    def _install(self, table: int, index: int, tag: int, distance: int) -> None:
        """Write a fresh, unconfident entry."""
        self._tags[table][index] = tag
        self._distances[table][index] = distance
        self._confidences[table][index] = 0
        self._valid[table][index] = True

    def _allocate(self, prediction: DistancePrediction, actual: int) -> None:
        """Allocate the pair in a component with longer history than the provider."""
        tables = range(prediction.provider + 2, len(self._tags))
        indices = prediction.indices
        for table in tables:
            index = indices[table]
            if not self._valid[table][index] or self._confidences[table][index] == 0:
                self._install(table, index, prediction.tags[table], actual)
                return
        # All candidates were confident: age them so a later allocation succeeds.
        for table in tables:
            confidences = self._confidences[table]
            index = indices[table]
            if confidences[index] > 0:
                confidences[index] -= 1

    def storage_bits(self) -> int:
        """Total predictor storage in bits (about 12.2KB at the default sizing)."""
        config = self.config
        payload = config.distance_bits + config.confidence_bits
        bits = config.base_entries * (config.base_tag_bits + payload)
        for entries, tag_bits in zip(config.component_entries, config.component_tag_bits):
            bits += entries * (tag_bits + payload)
        return bits

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def _field_tables(self) -> dict[str, list[list]]:
        """The per-table lists of each entry field, keyed as in a snapshot."""
        return {"tags": self._tags, "distances": self._distances,
                "confidences": self._confidences, "valid": self._valid}

    def to_snapshot(self) -> dict:
        """Serialise every table (base first); each list is a copy."""
        return {key: [list(table) for table in tables]
                for key, tables in self._field_tables().items()}

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the predictor tables with a copy of a :meth:`to_snapshot` image."""
        fields = self._field_tables()
        geometry = [len(table) for table in self._tags]
        if any([len(rows) for rows in snapshot[key]] != geometry for key in fields):
            raise ValueError("distance predictor snapshot geometry mismatch")
        for key, tables in fields.items():
            for table, rows in zip(tables, snapshot[key]):
                table[:] = rows
