"""Set-associative, sector-capable cache tag store.

Every cache in the model is built on this tag store.  Lines are divided
into sectors (sub-blocks, Section 4.3); a conventional cache is simply
one whose fills always validate every sector.  Lookups distinguish:

* ``hit``    — line present and all needed sectors valid;
* ``partial`` — line present but some needed sector missing (a *sector
  miss*, possible after a trimmed or sectored fill);
* ``miss``   — line absent.

Timing is owned by the surrounding controllers; this class is purely
state + statistics, which keeps it easy to property-test.

The hot paths of ``L2Cache`` and ``ComputeUnit`` do the lookup, fill,
dirty marking and write-hit refresh inline on ``_sets`` (set index ->
dict of tag -> :class:`CacheLine`, LRU first), updating the same
statistics; ``tests/memory/test_memory_fastpath.py`` holds them equal
to the methods here.  A change to that layout changes all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(slots=True)
class CacheLine:
    tag: int
    valid_sectors: int
    dirty: bool = False


def full_sector_mask(line_bytes: int, sector_bytes: int) -> int:
    """Bitmask with one bit per sector in a line, all set."""
    return (1 << (line_bytes // sector_bytes)) - 1


def sector_mask_for(
    offset_in_line: int, nbytes: int, line_bytes: int, sector_bytes: int
) -> int:
    """Mask of sectors covering ``nbytes`` starting at ``offset_in_line``.

    A zero-byte access still touches the sector at its offset.
    """
    if offset_in_line < 0 or offset_in_line >= line_bytes:
        raise ValueError(f"offset {offset_in_line} outside line of {line_bytes} B")
    nbytes = max(1, nbytes)
    last = min(line_bytes - 1, offset_in_line + nbytes - 1)
    first_sector = offset_in_line // sector_bytes
    last_sector = last // sector_bytes
    mask = 0
    for sector in range(first_sector, last_sector + 1):
        mask |= 1 << sector
    return mask


class SectorCache:
    """LRU set-associative tag store with per-sector valid bits."""

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        sector_bytes: int = 16,
        name: str = "cache",
    ) -> None:
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("cache size must be a multiple of ways * line size")
        if line_bytes % sector_bytes != 0:
            raise ValueError("line size must be a multiple of sector size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.n_sets = size_bytes // (ways * line_bytes)
        self.name = name
        # plain dicts preserve insertion order, which is all LRU needs:
        # a touch re-inserts the tag at the back, the victim is the front.
        # Sets materialize lazily: a 4 MB L2 has 4096 of them, and paying
        # for untouched ones up front dominated cache construction time.
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        self.full_mask = full_sector_mask(line_bytes, sector_bytes)
        #: (offset_in_line, nbytes) -> sector mask; the access stream
        #: revisits a handful of shapes, so the mask loop runs once each
        self._mask_cache: Dict[Tuple[int, int], int] = {}
        # statistics
        self.hits = 0
        self.misses = 0
        self.sector_misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # -- address helpers ----------------------------------------------------

    def _locate(self, addr: int) -> Tuple[Dict[int, CacheLine], int]:
        line_index = addr // self.line_bytes
        set_index = line_index % self.n_sets
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = {}
        return cache_set, line_index // self.n_sets

    def sector_mask(self, addr: int, nbytes: int) -> int:
        """Sectors of the line at ``addr`` covered by an ``nbytes`` access."""
        key = (addr % self.line_bytes, nbytes)
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = sector_mask_for(
                key[0], nbytes, self.line_bytes, self.sector_bytes
            )
            self._mask_cache[key] = mask
        return mask

    # -- operations ----------------------------------------------------------

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Tag check without LRU update or statistics."""
        cache_set, tag = self._locate(addr)
        return cache_set.get(tag)

    def lookup(self, addr: int, needed_mask: Optional[int] = None) -> str:
        """Access the line; returns ``"hit"``, ``"partial"`` or ``"miss"``."""
        if needed_mask is None:
            needed_mask = self.full_mask
        cache_set, tag = self._locate(addr)
        line = cache_set.get(tag)
        if line is None:
            self.misses += 1
            return "miss"
        cache_set[tag] = cache_set.pop(tag)  # refresh LRU position
        if (line.valid_sectors & needed_mask) == needed_mask:
            self.hits += 1
            return "hit"
        self.sector_misses += 1
        return "partial"

    def fill(self, addr: int, sector_mask: Optional[int] = None) -> Optional[CacheLine]:
        """Install sectors of a line, evicting LRU if needed.

        Returns the evicted line (if any) so write-back controllers can
        schedule the victim write.
        """
        if sector_mask is None:
            sector_mask = self.full_mask
        cache_set, tag = self._locate(addr)
        self.fills += 1
        line = cache_set.get(tag)
        if line is not None:
            line.valid_sectors |= sector_mask
            cache_set[tag] = cache_set.pop(tag)  # refresh LRU position
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            evicted = cache_set.pop(next(iter(cache_set)))  # LRU victim
            self.evictions += 1
            if evicted.dirty:
                self.dirty_evictions += 1
        cache_set[tag] = CacheLine(tag=tag, valid_sectors=sector_mask)
        return evicted

    def write(self, addr: int, nbytes: int) -> bool:
        """Update a present line in place (write-through caches).

        Returns whether the line was present; absent lines are not
        allocated (write-no-allocate, the common GPU L1 policy).
        """
        cache_set, tag = self._locate(addr)
        line = cache_set.get(tag)
        if line is None:
            return False
        cache_set[tag] = cache_set.pop(tag)  # refresh LRU position
        return True

    def mark_dirty(self, addr: int) -> bool:
        """Mark a present line dirty (write-back caches)."""
        cache_set, tag = self._locate(addr)
        line = cache_set.get(tag)
        if line is None:
            return False
        line.dirty = True
        return True

    def invalidate(self, addr: int) -> bool:
        cache_set, tag = self._locate(addr)
        return cache_set.pop(tag, None) is not None

    def clear(self) -> None:
        """Invalidate every line, keeping accumulated statistics."""
        for cache_set in self._sets.values():
            cache_set.clear()

    # -- statistics ------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.sector_misses

    def occupancy(self) -> int:
        """Number of resident lines (tests/debug)."""
        return sum(len(s) for s in self._sets.values())
