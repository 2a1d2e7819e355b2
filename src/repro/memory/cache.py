"""A set-associative, write-back, LRU cache model.

The timing model only needs hit/miss decisions and occupancy bookkeeping --
data values travel with the dynamic trace -- so lines store tags only.
MSHR occupancy is tracked per-cycle-window in the hierarchy; the cache
itself exposes hit/miss/eviction statistics.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 4
    mshrs: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"{self.name}: size must be divisible by ways * line size "
                f"({self.size_bytes} / {self.ways} * {self.line_bytes})"
            )
        if self.hit_latency < 1:
            raise ValueError("hit latency must be >= 1 cycle")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.ways * self.line_bytes)


class SetAssociativeCache:
    """An LRU set-associative cache tracking tags only."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # Every access needs the geometry; read it once, not per access.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        # Each set is an insertion-ordered dict {tag: dirty} used as an LRU list.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetch_fills = 0

    # -- address helpers ----------------------------------------------------------

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def line_address(self, address: int) -> int:
        """Return the address of the first byte of the line containing ``address``."""
        line_bytes = self._line_bytes
        return (address // line_bytes) * line_bytes

    # -- operations ---------------------------------------------------------------

    def lookup(self, address: int, is_write: bool = False) -> bool:
        """Access the cache; returns ``True`` on a hit and updates LRU/dirty state."""
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address: int, is_write: bool = False) -> None:
        """Install the line containing ``address``, evicting the LRU line if needed."""
        line = address // self._line_bytes
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            return
        self._install(cache_set, tag, is_write)

    def lookup_or_fill(self, address: int, is_write: bool = False) -> bool:
        """:meth:`lookup`, then :meth:`fill` on a miss, locating the line once.

        Returns ``True`` on a hit.  The hierarchy's L1-miss paths call this
        on the L2, so a miss costs one call instead of two.
        """
        line = address // self._line_bytes
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            self.hits += 1
            return True
        self.misses += 1
        self._install(cache_set, tag, is_write)
        return False

    def prefetch(self, addresses: list[int]) -> None:
        """Install the line of each address that is absent, clean, as a prefetch.

        A present line keeps its LRU position and dirty bit.  Hits and
        misses are not counted; ``prefetch_fills`` and evictions are.
        """
        line_bytes = self._line_bytes
        num_sets = self._num_sets
        sets = self._sets
        for address in addresses:
            line = address // line_bytes
            cache_set = sets[line % num_sets]
            tag = line // num_sets
            if tag not in cache_set:
                self._install(cache_set, tag, False)
                self.prefetch_fills += 1

    def _install(self, cache_set: dict[int, bool], tag: int, dirty: bool) -> None:
        """Insert an absent ``tag`` as MRU, evicting the set's LRU line if full."""
        if len(cache_set) >= self.config.ways:
            victim, victim_dirty = next(iter(cache_set.items()))
            del cache_set[victim]
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
        cache_set[tag] = dirty

    def probe(self, address: int) -> bool:
        """Return ``True`` if the line is present, without touching LRU or statistics."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> list:
        """Serialise every set as ``[tag, dirty]`` pairs in LRU order (LRU first)."""
        return [[[tag, 1 if dirty else 0] for tag, dirty in cache_set.items()]
                for cache_set in self._sets]

    def restore_snapshot(self, snapshot: list) -> None:
        """Overwrite the cache contents with a :meth:`to_snapshot` image.

        Only tags, dirty bits and LRU order are restored; the hit/miss/
        eviction statistics are left alone so every detailed window reports
        its own events.
        """
        if len(snapshot) != len(self._sets):
            raise ValueError(
                f"{self.config.name}: snapshot geometry does not match this cache")
        # One dict() per set: the dirty flags stay the image's 0/1 ints, which
        # every reader of a set treats as booleans.
        self._sets = [dict(rows) for rows in snapshot]

    # -- statistics ---------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Miss rate over all lookups (0.0 when the cache was never accessed)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def __repr__(self) -> str:
        return (f"SetAssociativeCache({self.config.name}: {self.config.size_bytes // 1024}KB, "
                f"{self.config.ways}-way, {self.config.num_sets} sets)")
