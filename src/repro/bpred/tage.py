"""A TAGE conditional branch predictor.

The paper's front end uses a 1+12-component TAGE predictor [Seznec &
Michaud, 2006] with roughly 15K entries and a 20-cycle minimum misprediction
penalty.  The model's default :class:`TageConfig` is smaller: a base table
and six tagged components (9,216 entries) whose longest history, 130 bits,
fits the core's 256-bit global history register.  The same TAGE machinery
is reused (with different payloads) by the Instruction Distance predictor
in :mod:`repro.core.distance`, so this module keeps the classic
prediction/update algorithm:

* the *base* component is a direct-mapped table of bimodal counters;
* each *tagged* component is indexed by a hash of the PC, a geometric number
  of global-history bits and a few path-history bits, and stores a partial
  tag, a 3-bit signed prediction counter and a 2-bit useful counter;
* the longest-history matching component provides the prediction, the next
  longest (or the base) provides the alternate prediction;
* on a misprediction, an entry is allocated in a longer-history component
  whose useful counter is zero.

Each tagged component keeps its state in four flat lists indexed by entry
(tag, counter, useful, valid) rather than one object per entry: every
:class:`~repro.pipeline.core.Core` builds a fresh predictor, so per-entry
objects would hand thousands of containers to the garbage collector per
core, and a snapshot would copy them one by one.  Index and tag widths and
each component's history mask are fixed at construction, so a lookup reads
the history and path registers once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.hashing import mix_hash, tag_hash
from repro.common.history import PathHistory, ShiftHistory


@dataclass(frozen=True)
class TageComponentConfig:
    """Geometry of one tagged TAGE component."""

    entries: int
    tag_bits: int
    history_bits: int

    def __post_init__(self) -> None:
        if self.entries < 2 or self.entries & (self.entries - 1):
            raise ValueError(f"component entries must be a power of two >= 2, got {self.entries}")
        if self.tag_bits < 1:
            raise ValueError("tag_bits must be >= 1")
        if self.history_bits < 1:
            raise ValueError("history_bits must be >= 1")


@dataclass(frozen=True)
class TageConfig:
    """Geometry of the whole TAGE predictor."""

    base_entries: int = 4096
    components: tuple[TageComponentConfig, ...] = (
        TageComponentConfig(1024, 9, 4),
        TageComponentConfig(1024, 9, 9),
        TageComponentConfig(1024, 10, 18),
        TageComponentConfig(1024, 10, 35),
        TageComponentConfig(512, 11, 67),
        TageComponentConfig(512, 12, 130),
    )
    path_bits: int = 16
    counter_bits: int = 3
    useful_bits: int = 2
    useful_reset_period: int = 256 * 1024

    @property
    def total_entries(self) -> int:
        """Total number of entries across the base and tagged components."""
        return self.base_entries + sum(component.entries for component in self.components)

class TagePrediction(NamedTuple):
    """The outcome of a TAGE lookup, kept until the branch resolves.

    The pipeline carries this record from fetch to execute so that
    :meth:`TageBranchPredictor.update` can be fed exactly the state used for
    the prediction (indices and tags would otherwise have to be recomputed
    with a stale history).  An immutable tuple: one is built per predicted
    branch.
    """

    taken: bool
    provider: int  # component index, -1 for the base predictor
    provider_index: int
    alt_taken: bool
    alt_provider: int
    alt_index: int
    base_index: int
    indices: tuple[int, ...]
    tags: tuple[int, ...]
    weak: bool


class TageBranchPredictor:
    """TAGE predictor over conditional branch directions."""

    def __init__(self, config: TageConfig | None = None) -> None:
        self.config = config or TageConfig()
        config = self.config
        half = 1 << (config.counter_bits - 1)
        self._counter_max = (1 << config.counter_bits) - 1
        self._counter_weakly_taken = half
        self._useful_max = (1 << config.useful_bits) - 1
        self._path_mask = (1 << config.path_bits) - 1
        # (history mask, history bits, index bits, tag bits) per component.
        # History registers never hold bits above their own length, so the
        # unclamped mask reads exactly the bits a clamped one would.
        self._geometry = tuple(
            ((1 << component.history_bits) - 1, component.history_bits,
             component.entries.bit_length() - 1, component.tag_bits)
            for component in config.components)
        self._base = [half] * config.base_entries
        entries = [component.entries for component in config.components]
        self._tags = [[0] * count for count in entries]
        self._counters = [[0] * count for count in entries]
        self._useful = [[0] * count for count in entries]
        self._valid = [[False] * count for count in entries]
        self._allocation_clock = 0

    # -- prediction ---------------------------------------------------------------

    def predict(self, pc: int, history: ShiftHistory, path: PathHistory) -> TagePrediction:
        """Predict the direction of the conditional branch at ``pc``."""
        history_value = history.value
        path_value = path.value & self._path_mask
        path_bits = self.config.path_bits
        valid = self._valid
        entry_tags = self._tags
        indices: list[int] = []
        tags: list[int] = []
        provider = alt_provider = -1
        for comp_id, (mask, history_bits, index_bits, tag_bits) in enumerate(self._geometry):
            folded = history_value & mask
            index = mix_hash(pc, folded, history_bits, path_value, path_bits, index_bits)
            tag = tag_hash(pc, folded, history_bits, tag_bits)
            indices.append(index)
            tags.append(tag)
            if valid[comp_id][index] and entry_tags[comp_id][index] == tag:
                alt_provider = provider
                provider = comp_id

        weakly_taken = self._counter_weakly_taken
        base_index = (pc >> 2) % len(self._base)
        base_counter = self._base[base_index]
        base_taken = base_counter >= weakly_taken
        if provider >= 0:
            provider_index = indices[provider]
            counter = self._counters[provider][provider_index]
            taken = counter >= weakly_taken
            weak = counter == weakly_taken or counter == weakly_taken - 1
            if alt_provider >= 0:
                alt_index = indices[alt_provider]
                alt_taken = self._counters[alt_provider][alt_index] >= weakly_taken
            else:
                alt_taken = base_taken
                alt_index = base_index
            # Newly allocated (weak) entries are less trustworthy than the
            # alternate prediction, per the original TAGE policy.
            if weak and not self._useful[provider][provider_index]:
                taken = alt_taken
        else:
            provider_index = alt_index = base_index
            taken = alt_taken = base_taken
            weak = base_counter == weakly_taken or base_counter == weakly_taken - 1

        return TagePrediction(taken, provider, provider_index, alt_taken, alt_provider,
                              alt_index, base_index, tuple(indices), tuple(tags), weak)

    # -- update -------------------------------------------------------------------

    def update(self, pc: int, taken: bool, prediction: TagePrediction) -> None:
        """Train the predictor with the resolved outcome of a predicted branch."""
        config = self.config
        provider = prediction.provider
        mispredicted = prediction.taken != taken

        # Update the provider (or the base table).
        if provider >= 0:
            index = prediction.provider_index
            counters = self._counters[provider]
            counters[index] = self._saturate(counters[index], taken)
            if prediction.taken != prediction.alt_taken:
                useful = self._useful[provider]
                if prediction.taken == taken:
                    useful[index] = min(useful[index] + 1, self._useful_max)
                else:
                    useful[index] = max(useful[index] - 1, 0)
            # Also train the base predictor when the provider entry is weak,
            # keeping the bimodal table a useful fallback.
            if prediction.weak:
                self._base[prediction.base_index] = self._saturate(
                    self._base[prediction.base_index], taken)
        else:
            self._base[prediction.base_index] = self._saturate(
                self._base[prediction.base_index], taken)

        # Allocate a new entry in a longer-history component on a misprediction.
        if mispredicted and provider < len(config.components) - 1:
            self._allocate(prediction, taken)

        # Periodic graceful aging of the useful counters.
        self._allocation_clock += 1
        if self._allocation_clock >= config.useful_reset_period:
            self._allocation_clock = 0
            for useful in self._useful:
                useful[:] = [value >> 1 for value in useful]

    def _allocate(self, prediction: TagePrediction, taken: bool) -> None:
        """Allocate an entry in one component with longer history than the provider."""
        start = prediction.provider + 1
        indices = prediction.indices
        for comp_id in range(start, len(self.config.components)):
            index = indices[comp_id]
            if not self._valid[comp_id][index] or self._useful[comp_id][index] == 0:
                self._valid[comp_id][index] = True
                self._tags[comp_id][index] = prediction.tags[comp_id]
                self._counters[comp_id][index] = self._counter_weakly_taken if taken \
                    else self._counter_weakly_taken - 1
                self._useful[comp_id][index] = 0
                return
        # No free entry: decay the useful counters on the candidate path so
        # that a later allocation succeeds (standard TAGE behaviour).
        for comp_id in range(start, len(self.config.components)):
            useful = self._useful[comp_id]
            index = indices[comp_id]
            useful[index] = max(useful[index] - 1, 0)

    def _saturate(self, counter: int, taken: bool) -> int:
        """Move a prediction counter toward the observed outcome."""
        if taken:
            return min(counter + 1, self._counter_max)
        return max(counter - 1, 0)

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def _field_tables(self) -> dict[str, list[list]]:
        """The per-component lists of each entry field, keyed as in a snapshot."""
        return {"tags": self._tags, "counters": self._counters,
                "useful": self._useful, "valid": self._valid}

    def to_snapshot(self) -> dict:
        """Serialise the predictor's trained state (counters, tags, useful bits).

        Every list is a copy, so the image is a value: training the
        predictor afterwards leaves it unchanged.
        """
        snapshot = {"base": list(self._base), "allocation_clock": self._allocation_clock}
        for key, tables in self._field_tables().items():
            snapshot[key] = [list(table) for table in tables]
        return snapshot

    def restore_snapshot(self, snapshot: dict) -> None:
        """Overwrite the trained state with a copy of a :meth:`to_snapshot` image."""
        fields = self._field_tables()
        geometry = [len(table) for table in self._tags]
        if len(snapshot["base"]) != len(self._base) or any(
                [len(rows) for rows in snapshot[key]] != geometry for key in fields):
            raise ValueError("TAGE snapshot geometry does not match this predictor")
        self._base[:] = snapshot["base"]
        for key, tables in fields.items():
            for table, rows in zip(tables, snapshot[key]):
                table[:] = rows
        self._allocation_clock = snapshot["allocation_clock"]

    # -- introspection ------------------------------------------------------------

    def storage_bits(self) -> int:
        """Approximate storage requirement of the predictor in bits."""
        config = self.config
        bits = config.base_entries * config.counter_bits
        for component in config.components:
            entry_bits = component.tag_bits + config.counter_bits + config.useful_bits
            bits += component.entries * entry_bits
        return bits
