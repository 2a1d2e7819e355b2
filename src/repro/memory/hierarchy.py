"""The composed L1I / L1D / unified L2 / DRAM hierarchy.

The core model asks one question of the hierarchy: *how many cycles does
this access take?*  Values travel with the dynamic trace, so the hierarchy
only models hit/miss behaviour, the stride prefetcher and MSHR pressure.

Latency composition follows Table 1: an L1D hit costs 4 cycles, an L1 miss
that hits in the L2 costs 4 + 12 cycles, and an L2 miss adds the DRAM
latency (75 to 185 cycles).  The L2 prefetcher is trained by L1 misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.dram import DramConfig, DramModel
from repro.memory.prefetcher import StridePrefetcher


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the full memory hierarchy (Table 1 defaults)."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1I", size_bytes=32 * 1024, ways=8, hit_latency=1, mshrs=8))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", size_bytes=32 * 1024, ways=8, hit_latency=4, mshrs=64))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=1024 * 1024, ways=16, hit_latency=12, mshrs=64))
    dram: DramConfig = field(default_factory=DramConfig)
    prefetch_degree: int = 8
    prefetch_distance: int = 1
    load_ports: int = 2


class MemoryHierarchy:
    """L1I + L1D + unified L2 + stride prefetcher + DRAM."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.l1i = SetAssociativeCache(self.config.l1i)
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.dram = DramModel(self.config.dram)
        self.prefetcher = StridePrefetcher(
            degree=self.config.prefetch_degree,
            distance=self.config.prefetch_distance,
        )
        self.demand_accesses = 0
        self.mshr_full_events = 0
        self._outstanding_misses: list[int] = []  # completion cycles of in-flight L1D misses

    # -- data-side accesses -------------------------------------------------------

    def access_data(self, address: int, is_write: bool, pc: int, now: int = 0) -> int:
        """Access the data side of the hierarchy; returns the latency in cycles.

        An L1D hit, the common case, refreshes the line's LRU position and
        dirty bit in its cache set here, with no further call.
        """
        self.demand_accesses += 1
        l1d = self.l1d
        line_bytes = l1d._line_bytes
        line = address // line_bytes
        # The set list is read on every access: restore_snapshot replaces it.
        cache_set = l1d._sets[line % l1d._num_sets]
        tag = line // l1d._num_sets
        latency = self.config.l1d.hit_latency
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            l1d.hits += 1
            return latency
        l1d.misses += 1
        line *= line_bytes

        # L1D miss: check MSHR occupancy, then the L2.
        self._retire_outstanding(now)
        if len(self._outstanding_misses) >= self.config.l1d.mshrs:
            self.mshr_full_events += 1
            latency += 4  # stall until an MSHR frees up (coarse model)

        prefetches = self.prefetcher.train(pc, line)
        latency += self.config.l2.hit_latency
        if not self.l2.lookup_or_fill(line, is_write):
            latency += self.dram.access(line, now)
        self.l1d.fill(line, is_write)
        self._outstanding_misses.append(now + latency)

        # Prefetches fill the L2 (distance-1, degree-8 stride prefetcher).
        if prefetches:
            self.l2.prefetch(prefetches)
        return latency

    # -- functional warming (two-speed simulation) ----------------------------------

    def warm_load(self, pc: int, address: int) -> None:
        """Timing-free load: update tags, LRU and prefetcher/DRAM training only.

        The sampled-simulation fast-forward path calls this and
        :meth:`warm_store` straight from its compiled blocks for every
        skipped load and store, so that detailed windows open with cache,
        prefetcher and DRAM row state consistent with the instruction
        stream, instead of a stale image frozen at the previous window's
        end.  No latencies are computed and no MSHR occupancy is modelled.
        An L1D hit, the common case, refreshes the line's LRU position in
        its cache set here, with no further call.
        """
        l1d = self.l1d
        line = address // l1d._line_bytes
        # The set list is read on every access: restore_snapshot replaces it.
        cache_set = l1d._sets[line % l1d._num_sets]
        tag = line // l1d._num_sets
        if tag in cache_set:
            cache_set[tag] = cache_set.pop(tag)
            l1d.hits += 1
            return
        l1d.misses += 1
        self._warm_miss(pc, line * l1d._line_bytes, False)

    def warm_store(self, pc: int, address: int) -> None:
        """:meth:`warm_load` for a store, which also leaves the line dirty."""
        l1d = self.l1d
        line = address // l1d._line_bytes
        cache_set = l1d._sets[line % l1d._num_sets]
        tag = line // l1d._num_sets
        if tag in cache_set:
            del cache_set[tag]
            cache_set[tag] = True
            l1d.hits += 1
            return
        l1d.misses += 1
        self._warm_miss(pc, line * l1d._line_bytes, True)

    def _warm_miss(self, pc: int, line: int, is_write: bool) -> None:
        """The rest of a timing-free access whose line missed in the L1D."""
        prefetches = self.prefetcher.train(pc, line)
        if not self.l2.lookup_or_fill(line, is_write):
            self.dram.warm(line)
        self.l1d.fill(line, is_write)
        if prefetches:
            self.l2.prefetch(prefetches)

    # -- instruction-side accesses ------------------------------------------------

    def access_instruction(self, pc: int, now: int = 0) -> int:
        """Fetch the line containing ``pc``; returns the latency in cycles."""
        line = self.l1i.line_address(pc)
        if self.l1i.lookup(line):
            return self.config.l1i.hit_latency
        latency = self.config.l1i.hit_latency + self.config.l2.hit_latency
        if not self.l2.lookup_or_fill(line):
            latency += self.dram.access(line, now)
        self.l1i.fill(line)
        return latency

    def next_event_cycle(self, now: int) -> int | None:
        """Earliest cycle after ``now`` at which timed hierarchy state changes.

        Combines the outstanding L1D-miss (MSHR) completion times with the
        DRAM bank-busy expiries.  Both are *passive* -- they only alter the
        latency of a future access, which the core initiates -- so the
        event-driven loop uses this as a conservative wake-up hint, never a
        requirement.  ``None`` means the hierarchy holds no timed state.
        """
        candidates = [t for t in self._outstanding_misses if t > now]
        dram_ready = self.dram.next_ready_cycle(now)
        if dram_ready is not None:
            candidates.append(dram_ready)
        return min(candidates) if candidates else None

    # -- housekeeping -------------------------------------------------------------

    def _retire_outstanding(self, now: int) -> None:
        """Drop completed misses from the MSHR occupancy list."""
        if self._outstanding_misses:
            self._outstanding_misses = [t for t in self._outstanding_misses if t > now]

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self, now: int = 0, warm: dict | None = None) -> dict:
        """Serialise cache tags/LRU/dirty state, DRAM rows and prefetcher training.

        Outstanding-miss (MSHR) completion times and DRAM bank-busy times
        are stored relative to ``now`` so a restored hierarchy can restart
        its cycle counter at zero.  Statistics are not part of the snapshot
        -- each detailed window accounts for its own events.

        ``warm`` is the image of a functionally warmed hierarchy (see
        :meth:`warm_load`), whose data side -- the L1D and L2 images, the
        prefetcher training and the DRAM open rows -- is returned in place
        of this hierarchy's own, which is then never serialised.  The
        warming hooks have no per-op PC stream and no timing, so the L1I
        contents, the outstanding-miss deltas and the DRAM bank-busy deltas
        are always this hierarchy's.  The warm image is not copied: like
        every snapshot, it is only ever copied out of.
        """
        dram = self.dram.to_snapshot(now)
        if warm is None:
            l1d, l2 = self.l1d.to_snapshot(), self.l2.to_snapshot()
            prefetcher = self.prefetcher.to_snapshot()
        else:
            l1d, l2, prefetcher = warm["l1d"], warm["l2"], warm["prefetcher"]
            dram["open_rows"] = warm["dram"]["open_rows"]
        return {
            "l1i": self.l1i.to_snapshot(),
            "l1d": l1d,
            "l2": l2,
            "dram": dram,
            "prefetcher": prefetcher,
            "outstanding_in": sorted(t - now for t in self._outstanding_misses
                                     if t > now),
        }

    def restore_snapshot(self, snapshot: dict, now: int = 0) -> None:
        """Restore a :meth:`to_snapshot` image, rebasing timed state onto ``now``."""
        self.l1i.restore_snapshot(snapshot["l1i"])
        self.l1d.restore_snapshot(snapshot["l1d"])
        self.l2.restore_snapshot(snapshot["l2"])
        self.dram.restore_snapshot(snapshot["dram"], now)
        self.prefetcher.restore_snapshot(snapshot["prefetcher"])
        self._outstanding_misses = [now + delta for delta in snapshot["outstanding_in"]]

    def stats(self) -> dict[str, float]:
        """Summary statistics for reporting."""
        return {
            "l1d_accesses": self.l1d.accesses,
            "l1d_misses": self.l1d.misses,
            "l1d_miss_rate": self.l1d.miss_rate(),
            "l2_accesses": self.l2.accesses,
            "l2_misses": self.l2.misses,
            "l1i_misses": self.l1i.misses,
            "dram_accesses": self.dram.accesses,
            "dram_row_hits": self.dram.row_hits,
            "prefetches_issued": self.prefetcher.prefetches_issued,
            "mshr_full_events": self.mshr_full_events,
        }

    def __repr__(self) -> str:
        return "MemoryHierarchy(L1I 32KB, L1D 32KB, L2 1MB, DDR3)"
