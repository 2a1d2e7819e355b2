"""The register renamer, including move elimination and SMB integration.

For every micro-op the renamer:

1. looks up the physical registers of the source operands;
2. for an eligible register-to-register move, attempts **move
   elimination**: the destination architectural register is mapped onto the
   source's physical register, provided the sharing tracker accepts one
   more reference (Section 2);
3. for a load with a confident Instruction Distance prediction, attempts
   **speculative memory bypassing**: the predicted producer is located in
   the ROB (through a callback supplied by the pipeline), its physical
   register becomes the load's destination mapping, again subject to the
   sharing tracker (Section 3.2);
4. otherwise allocates a fresh physical register from the free list.

In every case the previous mapping of the destination architectural
register is recorded so the commit stage can hand it to the reclaim logic
(which consults the sharing tracker before returning it to the free list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.move_elim import MoveEliminationPolicy, MoveEliminationStats
from repro.core.smb import SmbEngine
from repro.core.tracker import SharingTracker
from repro.isa.executor import DynamicOp
from repro.isa.registers import RegClass
from repro.rename.maps import FreeList, RenameMap


@dataclass(frozen=True)
class ProducerInfo:
    """What the pipeline knows about the instruction a load may bypass from."""

    seq: int
    preg: int
    value: int | None
    is_load: bool
    is_committed: bool


#: Callback the pipeline provides to locate a bypass producer by sequence number.
ProducerResolver = Callable[[int], ProducerInfo | None]


class Renamer:
    """Per-micro-op renaming with ME/SMB and a pluggable sharing tracker."""

    def __init__(self, rename_map: RenameMap, int_free_list: FreeList, fp_free_list: FreeList,
                 tracker: SharingTracker, move_policy: MoveEliminationPolicy,
                 smb_engine: SmbEngine | None = None) -> None:
        self.rename_map = rename_map
        self.int_free_list = int_free_list
        self.fp_free_list = fp_free_list
        self.tracker = tracker
        self.move_policy = move_policy
        self.smb_engine = smb_engine
        self.move_stats = MoveEliminationStats()

    # -- helpers ------------------------------------------------------------------

    def free_list_for(self, reg_class: RegClass) -> FreeList:
        """The free list serving ``reg_class``."""
        return self.int_free_list if reg_class is RegClass.INT else self.fp_free_list

    def can_rename(self, op: DynamicOp) -> bool:
        """Cheap resource check: is a physical register available if one is needed?

        Move elimination or SMB may end up not needing the register, but a
        conservative check keeps the rename stage simple (a real renamer
        stalls the same way when the free list runs dry).
        """
        if op.dest is None:
            return True
        return not self.free_list_for(op.dest.reg_class).is_empty()

    # -- main entry points --------------------------------------------------------

    def rename_into(self, entry, op: DynamicOp,
                    resolve_producer: ProducerResolver | None = None,
                    smb_prediction=None,
                    me_candidate: bool | None = None) -> None:
        """Rename one micro-op, writing the outcome into ``entry`` in place.

        ``entry`` is a freshly fetched :class:`~repro.backend.inflight
        .InflightOp` (or any object with the same renaming-outcome
        attributes at their defaults); only the fields that deviate from
        those defaults are written, which keeps the pipeline's hot path free
        of per-op allocations.  ``me_candidate`` lets the caller supply a
        cached :meth:`MoveEliminationPolicy.is_candidate` verdict (the
        candidacy of a static instruction never changes).
        """
        raw_map = self.rename_map.raw()
        src_pregs = entry.src_pregs = tuple([raw_map[flat] for flat in op.src_flats])
        self.move_stats.renamed_instructions += 1

        if op.dest is None:
            return

        # 1. Move elimination.
        if me_candidate is None:
            me_candidate = self.move_policy.is_candidate(op)
        if me_candidate and self._eliminate_into(entry, op, src_pregs):
            return

        # 2. Speculative memory bypassing.
        if smb_prediction is not None \
                and self._bypass_into(entry, op, src_pregs, resolve_producer,
                                      smb_prediction):
            return

        # 3. Conventional allocation from the free list.
        free_list = (self.int_free_list if op.dest.reg_class is RegClass.INT
                     else self.fp_free_list)
        new_preg = free_list.allocate()
        entry.old_preg = self.rename_map.define_flat(op.dest_flat, new_preg)
        entry.dest_preg = new_preg
        entry.allocated = True

    # -- move elimination ---------------------------------------------------------

    def _eliminate_into(self, entry, op: DynamicOp, src_pregs: tuple[int, ...]) -> bool:
        """Attempt move elimination; returns ``True`` when ``entry`` was renamed."""
        self.move_stats.candidates += 1
        if not self.tracker.supports_move_elimination:
            return False
        source_preg = src_pregs[0]
        if self.rename_map.lookup_flat(op.dest_flat) == source_preg:
            # The destination already maps to the source's register (e.g. a
            # repeated move): the mapping set does not change, so no new
            # reference needs to be recorded.
            self.move_stats.eliminated += 1
            entry.dest_preg = source_preg
            entry.old_preg = source_preg
            entry.eliminated = True
            return True
        granted = self.tracker.try_share(
            source_preg,
            dest_arch=op.dest_flat,
            src_arch=op.src_flats[0],
            memory_bypass=False,
        )
        if not granted:
            self.move_stats.rejected_by_tracker += 1
            return False
        entry.old_preg = self.rename_map.define_flat(op.dest_flat, source_preg)
        self.move_stats.eliminated += 1
        entry.dest_preg = source_preg
        entry.eliminated = True
        entry.share_recorded = True
        return True

    # -- speculative memory bypassing ----------------------------------------------

    def _bypass_into(self, entry, op: DynamicOp, src_pregs: tuple[int, ...],
                     resolve_producer: ProducerResolver | None,
                     smb_prediction) -> bool:
        """Attempt speculative memory bypassing; ``True`` when ``entry`` was renamed."""
        if self.smb_engine is None or resolve_producer is None \
                or not op.is_load or op.dest is None:
            return False
        if not self.tracker.supports_memory_bypass:
            return False
        producer_seq = op.seq - smb_prediction.distance
        if producer_seq < 0:
            self.smb_engine.note_rejection("no_producer")
            return False
        producer = resolve_producer(producer_seq)
        if producer is None:
            self.smb_engine.note_rejection("no_producer")
            return False
        if producer.preg is None or producer.preg < 0:
            self.smb_engine.note_rejection("no_producer")
            return False
        if op.dest.reg_class is not self._preg_class(producer.preg):
            # Bypassing across register classes would need a cross-file copy;
            # treat it as an unusable producer.
            self.smb_engine.note_rejection("no_producer")
            return False
        if self.rename_map.lookup_flat(op.dest_flat) == producer.preg:
            # The destination already maps to the producer's register; no new
            # reference is needed, the bypass is effectively free.
            self.smb_engine.note_bypass(producer.is_load, producer.is_committed)
            entry.dest_preg = producer.preg
            entry.old_preg = producer.preg
            entry.bypassed = True
            entry.bypass_producer = producer
            entry.bypass_value_matches = (producer.value is not None
                                          and producer.value == op.result)
            return True
        granted = self.tracker.try_share(
            producer.preg,
            dest_arch=op.dest_flat,
            src_arch=None,
            memory_bypass=True,
        )
        if not granted:
            self.smb_engine.note_rejection("tracker")
            return False
        entry.old_preg = self.rename_map.define_flat(op.dest_flat, producer.preg)
        self.smb_engine.note_bypass(producer.is_load, producer.is_committed)
        entry.dest_preg = producer.preg
        entry.bypassed = True
        entry.bypass_producer = producer
        entry.bypass_value_matches = (producer.value is not None
                                      and producer.value == op.result)
        entry.share_recorded = True
        return True

    def _preg_class(self, preg: int) -> RegClass:
        """Register class a global physical register number belongs to."""
        return RegClass.INT if self.int_free_list.contains(preg) else RegClass.FP
