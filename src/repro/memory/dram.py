"""DRAM (HBM/GDDR) model: fixed latency plus bandwidth-bounded concurrency.

Table 2: 1 TB/s per GPU at 100 ns access latency.  At 1 GHz that is
1024 bytes per cycle — far above any single link — so DRAM acts mostly
as a latency source; a bounded outstanding-access window models channel
occupancy under bursts.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Tuple

from repro.sim.component import Component
from repro.sim.engine import Engine


class Dram(Component):
    """Latency/bandwidth model of one GPU's local memory stacks."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        latency: int = 100,
        bytes_per_cycle: float = 1024.0,
        max_outstanding: int = 64,
    ) -> None:
        super().__init__(engine, name)
        self.latency = latency
        self.bytes_per_cycle = bytes_per_cycle
        self.max_outstanding = max_outstanding
        self._in_flight = 0
        #: accesses waiting for a channel: (transfer cycles, callback)
        self._waiting: Deque[Tuple[int, Callable[[], None]]] = deque()
        #: nbytes -> serialization cycles (accesses are overwhelmingly
        #: one line size, so the float ceil-division is paid once)
        self._transfer_cycles: dict = {}
        self.reads = 0
        self.writes = 0
        self.bytes_transferred = 0

    def access(self, nbytes: int, callback: Callable[[], None], is_write: bool = False) -> None:
        """Perform one memory access; ``callback`` fires on completion."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_transferred += nbytes
        transfer = self._transfer_cycles.get(nbytes)
        if transfer is None:
            transfer = math.ceil(nbytes / self.bytes_per_cycle)
            self._transfer_cycles[nbytes] = transfer
        if self._in_flight >= self.max_outstanding:
            self._waiting.append((transfer, callback))
            return
        self._in_flight += 1
        self.schedule(self.latency + transfer, self._complete, callback)

    def _complete(self, callback: Callable[[], None]) -> None:
        if self._waiting:
            # the freed channel starts the oldest waiting access
            transfer, waiting_cb = self._waiting.popleft()
            self.schedule(self.latency + transfer, self._complete, waiting_cb)
        else:
            self._in_flight -= 1
        callback()

    @property
    def outstanding(self) -> int:
        return self._in_flight + len(self._waiting)
