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
from typing import Callable, Deque, List, Tuple

from repro.memory.cache import SectorCache
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
        self._stalled: Deque[Tuple[int, int, bool, Callable[[], None]]] = deque()
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
        line = self.tags.line_addr(addr)
        if is_write:
            # full-line install: no fetch-on-write-miss needed
            self.tags.lookup(addr)  # statistics (hit/miss accounting)
            evicted = self.tags.fill(line)
            self.tags.mark_dirty(line)
            self._maybe_writeback(evicted)
            callback()
            return
        outcome = self.tags.lookup(addr)
        if outcome == "hit":
            callback()
            return
        self._handle_miss(line, callback)

    def _handle_miss(self, line: int, callback: Callable[[], None]) -> None:
        status = self.mshr.allocate(line, callback)
        if status == "merged":
            return
        if status == "full":
            self._stalled.append((line, 0, False, callback))
            return
        self.dram.access(self.line_bytes, partial(self._fill, line))

    def _fill(self, line: int) -> None:
        evicted = self.tags.fill(line)
        self._maybe_writeback(evicted)
        waiters = self.mshr.release(line)
        for waiter in waiters:
            waiter()
        self._retry_stalled()

    def _maybe_writeback(self, evicted) -> None:
        if evicted is not None and evicted.dirty:
            # posted write-back; completion is not on any critical path
            self.dram.access(self.line_bytes, _ignore_completion, is_write=True)

    def _retry_stalled(self) -> None:
        while self._stalled and not self.mshr.is_full:
            line, _nbytes, _is_write, callback = self._stalled.popleft()
            self._handle_miss(line, callback)


def _ignore_completion() -> None:
    """Completion sink for posted write-backs."""
