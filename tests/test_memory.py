"""Unit tests for the memory hierarchy, with hand-worked expected values.

Geometry used throughout the cache tests: ``size=256B, ways=2, line=64B``
gives 2 sets; ``line = addr // 64``, ``set = line % 2``, ``tag = line // 2``,
so addresses 0, 128, 256, 384, 512 all map to set 0 with tags 0..4 and
address 64 maps to set 1.

Latency composition (Table 1 defaults): an L1D hit costs 4 cycles; an L1D
miss hitting in the L2 costs 4 + 12; an L2 miss adds the DRAM latency --
75 cycles for a row-buffer hit, 75 + 55 for a row miss, plus queueing when
the bank is busy, clamped at 185.
"""

from __future__ import annotations

import random

import pytest

from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.dram import DramConfig, DramModel
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.prefetcher import StridePrefetcher


def _tiny_cache() -> SetAssociativeCache:
    return SetAssociativeCache(CacheConfig(
        name="T", size_bytes=256, ways=2, line_bytes=64, hit_latency=4, mshrs=4))


# ---------------------------------------------------------------------------
# SetAssociativeCache
# ---------------------------------------------------------------------------


def test_cache_geometry():
    config = CacheConfig(name="T", size_bytes=256, ways=2, line_bytes=64)
    assert config.num_sets == 2
    cache = SetAssociativeCache(config)
    assert cache.line_address(0) == 0
    assert cache.line_address(63) == 0
    assert cache.line_address(64) == 64
    assert cache.line_address(130) == 128


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig(name="bad", size_bytes=100, ways=3, line_bytes=64)
    with pytest.raises(ValueError):
        CacheConfig(name="bad", size_bytes=0, ways=1, line_bytes=64)


def test_cache_hit_miss_and_lru_eviction():
    cache = _tiny_cache()
    assert not cache.lookup(0)          # cold miss
    cache.fill(0)
    assert not cache.lookup(128)        # second tag of set 0
    cache.fill(128)
    assert cache.lookup(0)              # hit refreshes 0 -> LRU order [128, 0]
    cache.fill(256)                     # set 0 full: evicts LRU = 128
    assert cache.probe(0)
    assert not cache.probe(128)
    assert cache.probe(256)
    assert cache.evictions == 1
    assert cache.writebacks == 0        # nothing was dirty
    assert (cache.hits, cache.misses) == (1, 2)


def test_cache_writeback_accounting():
    cache = _tiny_cache()
    cache.fill(0, is_write=True)        # dirty line
    cache.fill(128)                     # clean line; set 0 now [0(dirty), 128]
    cache.fill(256)                     # evicts 0 -> dirty writeback
    assert cache.evictions == 1
    assert cache.writebacks == 1
    # A write *hit* also marks the line dirty.
    assert cache.lookup(128, is_write=True)
    cache.fill(384)                     # evicts 256 (clean): no writeback
    assert cache.writebacks == 1
    cache.fill(512)                     # evicts 128 (dirtied by the write hit)
    assert cache.writebacks == 2


def test_cache_probe_touches_nothing():
    cache = _tiny_cache()
    cache.fill(0)
    hits, misses = cache.hits, cache.misses
    assert cache.probe(0)
    assert not cache.probe(64)
    assert (cache.hits, cache.misses) == (hits, misses)
    # probe must not refresh LRU: 0 stays LRU and is evicted next.
    cache.fill(128)
    cache.probe(0)
    cache.fill(256)
    assert not cache.probe(0)


def test_cache_snapshot_roundtrip_preserves_lru_and_dirty():
    cache = _tiny_cache()
    cache.fill(0, is_write=True)
    cache.fill(128)
    cache.lookup(0)                     # LRU order [128, 0]
    image = cache.to_snapshot()
    other = _tiny_cache()
    other.restore_snapshot(image)
    other.fill(256)                     # must evict 128, not 0
    assert other.probe(0) and not other.probe(128)
    other.fill(384)                     # evicts 0 -> dirty writeback
    assert other.writebacks == 1


# ---------------------------------------------------------------------------
# DramModel
# ---------------------------------------------------------------------------


def test_dram_row_miss_then_hit():
    dram = DramModel()
    assert dram.access(0, now=0) == 130           # open the row: 75 + 55
    assert dram.access(0, now=1000) == 75         # row-buffer hit, bank idle
    assert dram.row_hits == 1
    assert dram.row_conflicts == 0


def test_dram_bank_queueing():
    dram = DramModel()
    dram.access(0, now=0)                         # bank 0 busy until cycle 24
    # Row hit (75) plus waiting out the busy bank (24 - 0).
    assert dram.access(0, now=0) == 99


def test_dram_row_conflict_and_clamp():
    dram = DramModel()
    dram.access(0, now=0)
    # Same bank (bank = row % 16), different row: conflict, plus queueing,
    # 75 + 55 + 24 = 154 (below the 185 clamp).
    conflict_address = 8192 * 16
    assert dram.access(conflict_address, now=0) == 154
    assert dram.row_conflicts == 1
    # A latency that would exceed the part's max is clamped.
    slow = DramModel(DramConfig(min_latency=150, row_miss_penalty=55, max_latency=185))
    assert slow.access(0, now=0) == 185


def test_dram_warm_updates_rows_without_stats():
    dram = DramModel()
    dram.warm(0)
    assert dram.accesses == 0
    assert dram.access(0, now=0) == 75            # row already open, no timing paid


# ---------------------------------------------------------------------------
# StridePrefetcher
# ---------------------------------------------------------------------------


def test_prefetcher_confirms_stride_twice_then_fires():
    prefetcher = StridePrefetcher(degree=8, distance=1, min_confidence=2)
    pc = 0x400
    assert prefetcher.train(pc, 0) == []          # allocate entry
    assert prefetcher.train(pc, 64) == []         # learn stride 64
    assert prefetcher.train(pc, 128) == []        # first confirmation
    prefetches = prefetcher.train(pc, 192)        # second confirmation: fire
    assert prefetches == [192 + 64 * step for step in range(1, 9)]
    assert prefetcher.prefetches_issued == 8


def test_prefetcher_stride_change_resets_confidence():
    prefetcher = StridePrefetcher(degree=8, distance=1, min_confidence=2)
    pc = 0x400
    for address in (0, 64, 128, 192):
        prefetcher.train(pc, address)
    assert prefetcher.train(pc, 200) == []        # stride broke: retrain
    assert prefetcher.train(pc, 208) == []        # new stride 8, one confirmation
    assert prefetcher.train(pc, 216) == [216 + 8 * step for step in range(1, 9)]


# ---------------------------------------------------------------------------
# MemoryHierarchy
# ---------------------------------------------------------------------------


def test_hierarchy_latency_composition():
    hierarchy = MemoryHierarchy()
    # Cold: L1D miss + L2 miss + DRAM row miss = 4 + 12 + 130.
    assert hierarchy.access_data(0, False, pc=0x100, now=0) == 146
    # Same line again: L1D hit.
    assert hierarchy.access_data(8, False, pc=0x100, now=1000) == 4
    # L2 hit path: drop the line from the L1D only.
    hierarchy.l1d.restore_snapshot([[] for _ in hierarchy.l1d.to_snapshot()])
    assert hierarchy.access_data(0, False, pc=0x100, now=2000) == 16


def test_hierarchy_instruction_side():
    hierarchy = MemoryHierarchy()
    cold = hierarchy.access_instruction(0x1000, now=0)
    assert cold == 1 + 12 + 130                   # L1I + L2 + DRAM row miss
    assert hierarchy.access_instruction(0x1000, now=1000) == 1


def test_hierarchy_prefetcher_fills_l2():
    hierarchy = MemoryHierarchy()
    pc = 0x500
    # Four strided L1D misses from one pc: 0, 64, 128, 192 (line stride 64).
    for address in (0, 64, 128, 192):
        hierarchy.access_data(address, False, pc=pc, now=10_000)
    # Degree-8, distance-1 prefetches 256..704 landed in the L2 (not the L1D).
    for line in range(256, 704 + 1, 64):
        assert hierarchy.l2.probe(line), f"line {line} not prefetched"
        assert not hierarchy.l1d.probe(line)
    assert hierarchy.l2.prefetch_fills == 8
    # The next demand access hits in the L2 thanks to the prefetch.
    assert hierarchy.access_data(256, False, pc=pc, now=20_000) == 16


def test_hierarchy_mshr_pressure():
    config = HierarchyConfig(l1d=CacheConfig(
        name="L1D", size_bytes=32 * 1024, ways=8, hit_latency=4, mshrs=1))
    hierarchy = MemoryHierarchy(config)
    first = hierarchy.access_data(0, False, pc=0x100, now=0)
    # The first miss is still outstanding at cycle 1: the single MSHR is
    # occupied, so the second miss pays the coarse 4-cycle stall on top.
    second = hierarchy.access_data(1 << 20, False, pc=0x104, now=1)
    assert hierarchy.mshr_full_events == 1
    assert second >= first - 55 + 4  # same path modulo row behaviour, plus stall


def test_hierarchy_warm_data_trains_state_without_latency():
    hierarchy = MemoryHierarchy()
    pc = 0x600
    for address in (0, 64, 128, 192):
        hierarchy.warm_load(pc, address)
    # Warming installed the lines and ran the prefetcher exactly like the
    # timed path would have...
    assert hierarchy.l1d.probe(0) and hierarchy.l2.probe(256)
    # ...without touching demand accounting or MSHR occupancy.
    assert hierarchy.demand_accesses == 0
    assert hierarchy._outstanding_misses == []
    # A subsequent timed access is a plain L1D hit.
    assert hierarchy.access_data(0, False, pc=pc, now=0) == 4


def test_hierarchy_snapshot_rebases_timed_state():
    hierarchy = MemoryHierarchy()
    hierarchy.access_data(0, False, pc=0x100, now=100)    # miss outstanding
    image = hierarchy.to_snapshot(now=100)
    restored = MemoryHierarchy()
    restored.restore_snapshot(image, now=0)
    # The outstanding miss completes the same number of cycles *after* the
    # restore point as it would have after the snapshot point.
    assert restored._outstanding_misses == [
        t - 100 for t in hierarchy._outstanding_misses]
    assert restored.l1d.probe(0)
    assert restored.access_data(0, False, pc=0x100, now=0) == 4


# ---------------------------------------------------------------------------
# The L1-miss paths against their lookup / fill / probe reference
# ---------------------------------------------------------------------------


def _reference_prefetch(l2: SetAssociativeCache, prefetches: list[int]) -> None:
    for address in prefetches:
        line = l2.line_address(address)
        if not l2.probe(line):
            l2.fill(line)
            l2.prefetch_fills += 1


def _reference_access_data(hierarchy: MemoryHierarchy, address: int,
                           is_write: bool, pc: int, now: int) -> int:
    """``access_data`` as separate lookup, fill and per-line probe calls."""
    config = hierarchy.config
    hierarchy.demand_accesses += 1
    line = hierarchy.l1d.line_address(address)
    latency = config.l1d.hit_latency
    if hierarchy.l1d.lookup(line, is_write=is_write):
        return latency
    hierarchy._retire_outstanding(now)
    if len(hierarchy._outstanding_misses) >= config.l1d.mshrs:
        hierarchy.mshr_full_events += 1
        latency += 4
    prefetches = hierarchy.prefetcher.train(pc, line)
    if hierarchy.l2.lookup(line, is_write=is_write):
        latency += config.l2.hit_latency
    else:
        latency += config.l2.hit_latency + hierarchy.dram.access(line, now)
        hierarchy.l2.fill(line, is_write=is_write)
    hierarchy.l1d.fill(line, is_write=is_write)
    hierarchy._outstanding_misses.append(now + latency)
    _reference_prefetch(hierarchy.l2, prefetches)
    return latency


def _reference_warm(hierarchy: MemoryHierarchy, pc: int, address: int,
                    is_write: bool) -> None:
    """``warm_load`` / ``warm_store`` as separate lookup, fill and probe calls."""
    line = hierarchy.l1d.line_address(address)
    if hierarchy.l1d.lookup(line, is_write=is_write):
        return
    prefetches = hierarchy.prefetcher.train(pc, line)
    if not hierarchy.l2.lookup(line, is_write=is_write):
        hierarchy.dram.warm(line)
        hierarchy.l2.fill(line, is_write=is_write)
    hierarchy.l1d.fill(line, is_write=is_write)
    _reference_prefetch(hierarchy.l2, prefetches)


def _reference_access_instruction(hierarchy: MemoryHierarchy, pc: int,
                                  now: int) -> int:
    config = hierarchy.config
    line = hierarchy.l1i.line_address(pc)
    if hierarchy.l1i.lookup(line):
        return config.l1i.hit_latency
    latency = config.l1i.hit_latency + config.l2.hit_latency
    if not hierarchy.l2.lookup(line):
        latency += hierarchy.dram.access(line, now)
        hierarchy.l2.fill(line)
    hierarchy.l1i.fill(line)
    return latency


def test_miss_paths_match_separate_lookup_fill_and_probe_calls():
    """``lookup_or_fill`` and ``prefetch`` leave every structure as before.

    Two small hierarchies run one seeded stream of timed and warmed data
    accesses and instruction fetches: one through the hierarchy's own
    methods, one through the reference sequences above.  Halfway, each is
    restored from its own image, so the rest runs on the image's 0/1
    dirty flags.
    """
    def small(name: str, size: int, ways: int, hit: int) -> CacheConfig:
        return CacheConfig(name=name, size_bytes=size, ways=ways,
                           hit_latency=hit, mshrs=2)

    config = HierarchyConfig(l1i=small("L1I", 512, 2, 1),
                             l1d=small("L1D", 512, 2, 4),
                             l2=small("L2", 2048, 4, 12))
    hierarchy, reference = MemoryHierarchy(config), MemoryHierarchy(config)
    rng = random.Random(7)
    strided = {0x400: 0, 0x404: 1 << 16}        # pc -> next address
    latencies, reference_latencies = [], []
    now = 0
    for step in range(4_000):
        if step == 2_000:
            for side in (hierarchy, reference):
                side.restore_snapshot(side.to_snapshot(now), now)
        now += rng.randrange(40)
        kind = rng.random()
        if kind < 0.1:
            pc = rng.randrange(0, 4096, 4)
            latencies.append(hierarchy.access_instruction(pc, now))
            reference_latencies.append(
                _reference_access_instruction(reference, pc, now))
            continue
        if kind < 0.45:
            pc = rng.choice(sorted(strided))
            address = strided[pc]
            strided[pc] += 64 if pc == 0x400 else 128
        elif kind < 0.8:
            pc, address = 0x500, rng.randrange(1024)
        else:
            pc, address = 0x600, rng.randrange(1 << 20)
        is_write = rng.random() < 0.3
        if rng.random() < 0.5:
            latencies.append(hierarchy.access_data(address, is_write, pc, now))
            reference_latencies.append(
                _reference_access_data(reference, address, is_write, pc, now))
        else:
            (hierarchy.warm_store if is_write else hierarchy.warm_load)(pc, address)
            _reference_warm(reference, pc, address, is_write)

    assert latencies == reference_latencies
    for name in ("l1i", "l1d", "l2"):
        cache, expected = getattr(hierarchy, name), getattr(reference, name)
        assert cache.to_snapshot() == expected.to_snapshot(), name
        for counter in ("hits", "misses", "evictions", "writebacks",
                        "prefetch_fills"):
            assert getattr(cache, counter) == getattr(expected, counter), \
                (name, counter)
    assert hierarchy.prefetcher.to_snapshot() == reference.prefetcher.to_snapshot()
    assert hierarchy.dram.to_snapshot(now) == reference.dram.to_snapshot(now)
    assert hierarchy.to_snapshot(now) == reference.to_snapshot(now)
    assert hierarchy.stats() == reference.stats()
    # The stream reached every case: hits, clean and dirty evictions, and
    # prefetch bursts that found some of their lines already present.
    l2 = hierarchy.l2
    assert hierarchy.l1d.hits and l2.hits
    assert 0 < l2.writebacks < l2.evictions
    assert 0 < l2.prefetch_fills < hierarchy.prefetcher.prefetches_issued
    assert hierarchy.mshr_full_events
