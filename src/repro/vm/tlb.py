"""TLBs and the page-walk cache.

Table 2: per-CU 32-entry fully-associative L1 TLBs (1-cycle lookup),
a per-GPU 512-entry 8-way L2 TLB (10-cycle lookup), and a 32-entry
fully-associative page-walk cache (10-cycle lookup) holding entries from
the upper levels (1-3) of the radix table, matched by longest prefix.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.vm.page_table import BITS_PER_LEVEL, LEVELS


class Tlb:
    """A set-associative (or fully-associative) VPN -> PPN-address cache."""

    def __init__(
        self,
        entries: int,
        assoc: Optional[int] = None,
        lookup_latency: int = 1,
        name: str = "tlb",
    ) -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.entries = entries
        self.assoc = assoc if assoc is not None else entries  # default: fully assoc
        if entries % self.assoc != 0:
            raise ValueError("entries must be a multiple of associativity")
        self.n_sets = entries // self.assoc
        self.lookup_latency = lookup_latency
        self.name = name
        # plain dicts preserve insertion order, which is all LRU needs: a
        # touch re-inserts the VPN at the back, the victim is the front
        self._sets: List[dict] = [{} for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _set_for(self, vpn: int) -> dict:
        return self._sets[vpn % self.n_sets]

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached physical page address, updating LRU."""
        tlb_set = self._sets[vpn % self.n_sets]
        # pop+reinsert refreshes the LRU position in two hash probes
        # (page addresses are never None, so None is a safe miss marker)
        paddr = tlb_set.pop(vpn, None)
        if paddr is None:
            self.misses += 1
            return None
        tlb_set[vpn] = paddr
        self.hits += 1
        return paddr

    def insert(self, vpn: int, page_paddr: int) -> None:
        tlb_set = self._sets[vpn % self.n_sets]
        if vpn in tlb_set:
            del tlb_set[vpn]  # refresh LRU position
        elif len(tlb_set) >= self.assoc:
            del tlb_set[next(iter(tlb_set))]  # LRU victim
        tlb_set[vpn] = page_paddr

    def invalidate(self, vpn: int) -> bool:
        return self._set_for(vpn).pop(vpn, None) is not None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class PageWalkCache:
    """Longest-prefix cache over upper page-table levels (1-3).

    A hit at level ``k`` means the walker already holds the pointer chain
    down to (and including) the level-``k`` PTE, so the walk resumes at
    level ``k+1``: a level-3 hit leaves a single leaf access.
    """

    def __init__(self, entries: int = 32, lookup_latency: int = 10) -> None:
        self.entries = entries
        self.lookup_latency = lookup_latency
        self._cache: "OrderedDict[tuple, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _prefix(vpn: int, level: int) -> tuple:
        """A level-k entry is determined by radix indices 1..k, i.e. the
        VPN with the lower ``LEVELS - k`` index fields stripped."""
        shift = BITS_PER_LEVEL * (LEVELS - level)
        return (level, vpn >> shift)

    def longest_prefix_level(self, vpn: int) -> int:
        """Deepest upper level (1-3) cached for this VPN; 0 when none."""
        for level in range(LEVELS - 1, 0, -1):
            key = self._prefix(vpn, level)
            if key in self._cache:
                self._cache.move_to_end(key)
                self.hits += 1
                return level
        self.misses += 1
        return 0

    def insert_path(self, vpn: int) -> None:
        """Cache all upper-level prefixes touched by a completed walk."""
        for level in range(1, LEVELS):
            key = self._prefix(vpn, level)
            if key in self._cache:
                self._cache.move_to_end(key)
                continue
            if len(self._cache) >= self.entries:
                self._cache.popitem(last=False)
            self._cache[key] = True

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
