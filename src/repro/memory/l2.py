"""Banked, write-back, MSHR-backed L2 cache (one per GPU, shared system-wide).

Table 2: 4 MB per GPU, 16 banks, 16-way, 100-cycle lookup, 64-entry
MSHR, 64 B lines, write-back.  The L2 caches both data and page-table
entries.  Each bank accepts one request per cycle (pipelined); misses go
to the local DRAM without blocking the bank.

Writes install the full line (WRITE_REQ packets carry the whole 64 B
line, Table 1) and mark it dirty; dirty victims are written back to DRAM
asynchronously.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Tuple

from repro.memory.cache import CacheLine, SectorCache
from repro.memory.dram import Dram
from repro.memory.mshr import Mshr
from repro.sim.component import Component
from repro.sim.engine import Engine


class L2Cache(Component):
    """One GPU's L2 partition, backed by its local DRAM."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        dram: Dram,
        size_bytes: int = 4 * 1024 * 1024,
        ways: int = 16,
        banks: int = 16,
        lookup_latency: int = 100,
        mshr_entries: int = 64,
        line_bytes: int = 64,
    ) -> None:
        super().__init__(engine, name)
        self.dram = dram
        self.tags = SectorCache(
            size_bytes=size_bytes,
            ways=ways,
            line_bytes=line_bytes,
            sector_bytes=line_bytes,  # L2 is not sectored
            name=f"{name}.tags",
        )
        self.banks = banks
        self.lookup_latency = lookup_latency
        self.line_bytes = line_bytes
        self.mshr = Mshr(mshr_entries, name=f"{name}.mshr")
        self._bank_next_free: List[int] = [0] * banks
        #: requests stalled on a full MSHR, retried as entries retire
        self._stalled: Deque[Tuple[int, Callable[[], None]]] = deque()
        self.read_requests = 0
        self.write_requests = 0

    # -- public API -----------------------------------------------------------

    def request(
        self, addr: int, nbytes: int, is_write: bool, callback: Callable[[], None]
    ) -> None:
        """Access the L2; ``callback`` fires when the data is available
        (reads) or the write is ordered in the cache."""
        if is_write:
            self.write_requests += 1
        else:
            self.read_requests += 1
        bank = (addr // self.line_bytes) % self.banks
        now = self.engine._now
        bank_next_free = self._bank_next_free
        start = bank_next_free[bank]
        if start < now:
            start = now
        bank_next_free[bank] = start + 1
        self.schedule(
            (start - now) + self.lookup_latency,
            self._lookup,
            addr,
            nbytes,
            is_write,
            callback,
        )

    # -- internals ---------------------------------------------------------------

    def _lookup(
        self, addr: int, nbytes: int, is_write: bool, callback: Callable[[], None]
    ) -> None:
        # SectorCache._locate, lookup, fill and mark_dirty, inlined: the
        # set and tag are computed once for the whole access
        tags = self.tags
        line_index = addr // self.line_bytes
        n_sets = tags.n_sets
        set_index = line_index % n_sets
        cache_set = tags._sets.get(set_index)
        if cache_set is None:
            cache_set = tags._sets[set_index] = {}
        tag = line_index // n_sets
        line = cache_set.pop(tag, None)
        full_mask = tags.full_mask
        if is_write:
            # full-line install: no fetch-on-write-miss needed
            tags.fills += 1
            if line is None:
                tags.misses += 1
                self._install(cache_set, tag, True)
            else:
                if line.valid_sectors & full_mask == full_mask:
                    tags.hits += 1
                else:
                    tags.sector_misses += 1
                line.valid_sectors |= full_mask
                line.dirty = True
                cache_set[tag] = line  # refresh LRU position
            callback()
            return
        if line is None:
            tags.misses += 1
        else:
            cache_set[tag] = line  # refresh LRU position
            if line.valid_sectors & full_mask == full_mask:
                tags.hits += 1
                callback()
                return
            tags.sector_misses += 1
        self._handle_miss(line_index * self.line_bytes, callback)

    def _install(self, cache_set: Dict[int, CacheLine], tag: int, dirty: bool) -> None:
        """Install an absent line at the MRU end, evicting the LRU line of
        a full set and posting a dirty victim's write-back."""
        tags = self.tags
        if len(cache_set) >= tags.ways:
            evicted = cache_set.pop(next(iter(cache_set)))  # LRU victim
            tags.evictions += 1
            if evicted.dirty:
                tags.dirty_evictions += 1
                # posted write-back; completion is not on any critical path
                self.dram.access(self.line_bytes, _ignore_completion, True)
        cache_set[tag] = CacheLine(tag, tags.full_mask, dirty)

    def _handle_miss(self, line: int, callback: Callable[[], None]) -> None:
        # Mshr.allocate, inlined
        mshr = self.mshr
        entries = mshr._entries
        waiters = entries.get(line)
        if waiters is not None:
            waiters.append(callback)
            mshr.merges += 1
            return
        if len(entries) >= mshr.capacity:
            mshr.full_stalls += 1
            self._stalled.append((line, callback))
            return
        entries[line] = [callback]
        mshr.allocations += 1
        self.dram.access(self.line_bytes, partial(self._fill, line))

    def _fill(self, line: int) -> None:
        # SectorCache.fill and Mshr.release, inlined
        tags = self.tags
        line_index = line // self.line_bytes
        n_sets = tags.n_sets
        set_index = line_index % n_sets
        cache_set = tags._sets.get(set_index)
        if cache_set is None:
            cache_set = tags._sets[set_index] = {}
        tag = line_index // n_sets
        tags.fills += 1
        present = cache_set.pop(tag, None)
        if present is None:
            self._install(cache_set, tag, False)
        else:
            present.valid_sectors |= tags.full_mask
            cache_set[tag] = present  # refresh LRU position
        for waiter in self.mshr._entries.pop(line):
            waiter()
        stalled = self._stalled
        if stalled:
            mshr = self.mshr
            while stalled and len(mshr._entries) < mshr.capacity:
                self._handle_miss(*stalled.popleft())


def _ignore_completion() -> None:
    """Completion sink for posted write-backs."""
