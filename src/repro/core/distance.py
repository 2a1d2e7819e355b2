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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.hashing import mix_hash, tag_hash


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


@dataclass
class _DistanceEntry:
    """One predictor entry: partial tag, predicted distance and confidence."""

    tag: int = 0
    distance: int = 0
    confidence: int = 0
    valid: bool = False


def _snapshot_table(table: dict[int, _DistanceEntry]) -> dict:
    """Serialise one sparse predictor table for a snapshot."""
    return {index: [e.tag, e.distance, e.confidence, 1 if e.valid else 0]
            for index, e in table.items()}


def _restore_table(snapshot: dict) -> dict[int, _DistanceEntry]:
    """Rebuild one sparse predictor table from a snapshot."""
    return {
        int(index): _DistanceEntry(tag=tag, distance=distance, confidence=confidence,
                                   valid=bool(valid))
        for index, (tag, distance, confidence, valid) in snapshot.items()
    }


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
    """TAGE-like instruction distance predictor (base + 5 tagged components)."""

    name = "tage"

    def __init__(self, config: TageDistanceConfig | None = None) -> None:
        self.config = config or TageDistanceConfig()
        config = self.config
        self._base: dict[int, _DistanceEntry] = {}
        self._components: list[dict[int, _DistanceEntry]] = [
            dict() for _ in config.component_entries
        ]
        self._base_tag_mask = (1 << config.base_tag_bits) - 1
        self._max_confidence = (1 << config.confidence_bits) - 1
        # (history bits, index bits, tag bits) per tagged component.
        self._geometry = tuple(
            (history_bits, entries.bit_length() - 1, tag_bits)
            for entries, history_bits, tag_bits in zip(
                config.component_entries, config.component_history_bits,
                config.component_tag_bits))
        self.lookups = 0
        self.trainings = 0
        self.allocations = 0

    # -- prediction ---------------------------------------------------------------

    def predict(self, pc: int, history: int, path: int) -> DistancePrediction:
        """Predict the instruction distance for the load at ``pc``."""
        self.lookups += 1
        base_entries = self.config.base_entries
        path_bits = self.config.path_bits
        base_index = (pc >> 2) % base_entries
        base_tag = ((pc >> 2) // base_entries) & self._base_tag_mask
        indices: list[int] = [base_index]
        tags: list[int] = [base_tag]
        provider = -1
        provider_index = base_index
        provider_entry: _DistanceEntry | None = None

        components = self._components
        for comp, (history_bits, index_bits, tag_bits) in enumerate(self._geometry):
            index = mix_hash(pc, history, history_bits, path, path_bits, index_bits)
            tag = tag_hash(pc, history, history_bits, tag_bits)
            indices.append(index)
            tags.append(tag)
            entry = components[comp].get(index)
            if entry is not None and entry.valid and entry.tag == tag:
                provider = comp
                provider_index = index
                provider_entry = entry

        if provider_entry is None:
            base_entry = self._base.get(base_index)
            if base_entry is not None and base_entry.valid and base_entry.tag == base_tag:
                provider_entry = base_entry
                provider = -1
                provider_index = base_index

        if provider_entry is None:
            return DistancePrediction(None, False, -2, 0, tuple(indices), tuple(tags))
        return DistancePrediction(provider_entry.distance,
                                  provider_entry.confidence >= self._max_confidence,
                                  provider, provider_index, tuple(indices), tuple(tags))

    # -- training -----------------------------------------------------------------

    def train(self, pc: int, history: int, path: int, actual_distance: int | None,
              prediction: DistancePrediction | None = None) -> None:
        """Train with the distance observed at commit (``None`` when no producer was found)."""
        self.trainings += 1
        if prediction is None or not prediction.indices:
            prediction = self.predict(pc, history, path)
            self.lookups -= 1
        if actual_distance is None:
            # No identified producer: a confident provider must lose its
            # confidence, otherwise it keeps authorising doomed bypasses
            # for loads that periodically have no in-window producer.
            self._reset_provider_confidence(prediction)
            return
        max_distance = (1 << self.config.distance_bits) - 1
        actual = min(actual_distance, max_distance)

        provider_entry = self._provider_entry(prediction)
        correct = provider_entry is not None and provider_entry.distance == actual
        if provider_entry is not None:
            if correct:
                provider_entry.confidence = min(provider_entry.confidence + 1,
                                                self._max_confidence)
            else:
                provider_entry.distance = actual
                provider_entry.confidence = 0
        else:
            # Nothing predicted for this load yet: seed the base component.
            base_index, base_tag = prediction.indices[0], prediction.tags[0]
            self._base[base_index] = _DistanceEntry(
                tag=base_tag, distance=actual, confidence=0, valid=True)

        # TAGE-style allocation: a wrong provider promotes the pair into a
        # longer-history component so context-dependent distances separate.
        if provider_entry is not None and not correct:
            self._allocate(prediction, actual)

    def _provider_entry(self, prediction: DistancePrediction) -> _DistanceEntry | None:
        if prediction.provider == -2:
            return None
        if prediction.provider == -1:
            entry = self._base.get(prediction.indices[0])
            if entry is not None and entry.valid and entry.tag == prediction.tags[0]:
                return entry
            return None
        component = self._components[prediction.provider]
        entry = component.get(prediction.provider_index)
        if entry is not None and entry.valid and entry.tag == prediction.tags[prediction.provider + 1]:
            return entry
        return None

    def _reset_provider_confidence(self, prediction: DistancePrediction) -> None:
        entry = self._provider_entry(prediction)
        if entry is not None:
            entry.confidence = 0

    def punish(self, pc: int, history: int, path: int,
               prediction: DistancePrediction | None = None) -> None:
        """A bypass based on this predictor failed validation: clear the provider's confidence."""
        if prediction is None or not prediction.indices:
            prediction = self.predict(pc, history, path)
            self.lookups -= 1
        self._reset_provider_confidence(prediction)

    def _allocate(self, prediction: DistancePrediction, actual: int) -> None:
        """Allocate the pair in a component with longer history than the provider."""
        start = prediction.provider + 1 if prediction.provider >= 0 else 0
        for comp in range(start, len(self._components)):
            index = prediction.indices[comp + 1]
            tag = prediction.tags[comp + 1]
            entry = self._components[comp].get(index)
            if entry is None or not entry.valid or entry.confidence == 0:
                self._components[comp][index] = _DistanceEntry(
                    tag=tag, distance=actual, confidence=0, valid=True)
                self.allocations += 1
                return
        # All candidates were confident: age them so a later allocation succeeds.
        for comp in range(start, len(self._components)):
            entry = self._components[comp].get(prediction.indices[comp + 1])
            if entry is not None and entry.confidence > 0:
                entry.confidence -= 1

    def storage_bits(self) -> int:
        """Total predictor storage in bits (about 12.2KB at the default sizing)."""
        config = self.config
        payload = config.distance_bits + config.confidence_bits
        bits = config.base_entries * (config.base_tag_bits + payload)
        for entries, tag_bits in zip(config.component_entries, config.component_tag_bits):
            bits += entries * (tag_bits + payload)
        return bits

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> dict:
        """Serialise the base and tagged components (statistics excluded)."""
        return {"base": _snapshot_table(self._base),
                "components": [_snapshot_table(table) for table in self._components]}

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the predictor tables with a :meth:`to_snapshot` image."""
        if len(snapshot["components"]) != len(self._components):
            raise ValueError("distance predictor snapshot geometry mismatch")
        self._base = _restore_table(snapshot["base"])
        self._components = [_restore_table(table) for table in snapshot["components"]]

