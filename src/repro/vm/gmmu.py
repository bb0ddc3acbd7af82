"""GPU Memory Management Unit: L2 TLB, page-walk cache, parallel walkers.

Section 2.3: on an L2 TLB miss, the PWC is probed with a longest-prefix
match; depending on the hit level a walk performs 1-4 PTE reads, served
by one of 16 parallel walkers.  Each PTE read goes through the memory
system of the GPU holding the page-table node (local L2/DRAM, or a
PT_REQ/PT_RSP exchange across the network).  Completed translations are
inserted into the PWC and L2 TLB and returned to the requesting CU.

A translation that finds the walk MSHR full is back-pressured: it retries
on an 8-cycle cadence from the cycle of its failed attempt.  Between two
changes of the GMMU's walk state every such retry would fail again, so a
failed translation *parks* with no event pending, and each change of walk
state (a walk allocated, or one finished: L2 TLB filled, MSHR entry freed)
gives every parked translation one retry at the slot its 8-cycle chain
would have reached next.  :class:`WalkRetrySchedule` holds those slots for
every GMMU on one engine, so retries falling due in the same cycle run in
one event, in the order the polling chains would have run them.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.memory.mshr import Mshr
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats
from repro.vm.page_table import PageTable
from repro.vm.tlb import PageWalkCache, Tlb

#: PteAccessFn(pte_addr, home_gpu, completion_callback)
PteAccessFn = Callable[[int, int, Callable[[], None]], None]


#: cadence of a back-pressured translation's retries, in cycles
WALK_RETRY_CYCLES = 8


class _Parked:
    """A translation back-pressured by a full walk MSHR."""

    __slots__ = ("vpn", "callback", "entered", "order", "last")

    def __init__(self, vpn: int, callback: Callable[[int], None], entered: int, order: int):
        self.vpn = vpn
        self.callback = callback
        #: cycle of the failed first attempt; the chain's retry slots are
        #: ``entered + 8k`` for k >= 1
        self.entered = entered
        #: engine-wide order of that failure among first attempts
        self.order = order
        #: cycle of the latest attempt (first or retry)
        self.last = entered


class WalkRetrySchedule:
    """Pending walk-MSHR retries of every GMMU on one engine.

    A polling chain that failed at cycle ``c`` would re-poll at cycles
    ``p = c + 8k``, each poll scheduled at ``p - 8`` by the previous one,
    so it sorts under the engine key ``(p, p - 8)``.  A woken translation
    is entered here under the first such ``p`` whose key is not behind
    the running event's, and one event per retry cycle, injected at that
    key, runs all of its retries.  Within a cycle they run in the
    polling chains' order across every GMMU: a chain sorts by the cycle
    its first attempt failed, latest first (a first attempt, scheduled
    ``l2_tlb_latency`` > 8 cycles ahead, runs before the retries of its
    cycle, so its first poll is queued ahead of theirs), then by the
    order of those failures.

    A node hands one schedule per engine to all of its GMMUs.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        #: retry cycle -> [(-entered, order, gmmu, parked)]
        self._due: Dict[int, List[Tuple[int, int, "Gmmu", _Parked]]] = {}
        self._failures = 0

    def park(self, vpn: int, callback: Callable[[int], None]) -> _Parked:
        """Record a failed first attempt at the current cycle."""
        self._failures += 1
        return _Parked(vpn, callback, self.engine._now, self._failures)

    def wake(self, gmmu: "Gmmu", parked: List[_Parked]) -> None:
        """Give each of ``gmmu``'s parked translations its next retry.

        The next slot is the earliest ``p`` after the translation's last
        attempt whose key ``(p, p - 8)`` does not sort before the running
        event's ``(now, cur_skey)``.  On a tie — walk state changed by an
        event keyed exactly ``(p, p - 8)``, which the default latencies
        rule out — sequence order decides: the retry event is sequenced
        when its slot is first assigned, so it runs later in the same
        cycle, after the event that woke it.
        """
        engine = self.engine
        now = engine._now
        step = WALK_RETRY_CYCLES
        # a slot due now is still ahead when its key p - 8 >= cur_skey
        floor = engine.cur_skey + step
        due = self._due
        for rec in parked:
            p = rec.last + step
            if p < now:
                p = now + (rec.last - now) % step
            if p == now and p < floor:
                p += step
            batch = due.get(p)
            if batch is None:
                due[p] = batch = []
                engine.inject(p, p - step, gmmu._run_retries, p)
            batch.append((-rec.entered, rec.order, gmmu, rec))

    def take(self, cycle: int) -> List[Tuple[int, int, "Gmmu", _Parked]]:
        """The retries due at ``cycle``, in polling-chain order."""
        batch = self._due.pop(cycle)
        batch.sort()  # (-entered, order) is unique per translation
        return batch


class Gmmu(Component):
    """One GPU's shared translation machinery behind the per-CU L1 TLBs."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        gpu_id: int,
        page_table: PageTable,
        l2_tlb: Tlb,
        pwc: PageWalkCache,
        pte_access: PteAccessFn,
        stats: RunStats,
        n_walkers: int = 16,
        walk_mshr_entries: int = 64,
        walk_retries: Optional[WalkRetrySchedule] = None,
    ) -> None:
        super().__init__(engine, name)
        self.gpu_id = gpu_id
        self.page_table = page_table
        self.l2_tlb = l2_tlb
        self.pwc = pwc
        self.pte_access = pte_access
        self.stats = stats
        self.n_walkers = n_walkers
        self._walkers_busy = 0
        self._walk_mshr = Mshr(walk_mshr_entries, name=f"{name}.walk_mshr")
        self._walk_queue: Deque[int] = deque()
        #: shared by every GMMU on the engine (see :class:`WalkRetrySchedule`)
        self.walk_retries = walk_retries or WalkRetrySchedule(engine)
        #: translations back-pressured by the full walk MSHR, with no retry
        #: slot yet: they wait for the next change of walk state
        self._parked: List[_Parked] = []
        self.translations_requested = 0

    # -- public API ------------------------------------------------------------

    def translate(self, vpn: int, callback: Callable[[int], None]) -> None:
        """Resolve ``vpn``; ``callback(page_paddr)`` fires when done."""
        self.translations_requested += 1
        self.schedule(self.l2_tlb.lookup_latency, self._after_l2_tlb, vpn, callback)

    def _after_l2_tlb(self, vpn: int, callback: Callable[[int], None]) -> None:
        if not self._attempt(vpn, callback):
            self._parked.append(self.walk_retries.park(vpn, callback))

    def _attempt(self, vpn: int, callback: Callable[[int], None]) -> bool:
        """L2 TLB lookup, then the walk MSHR; False when the MSHR is full."""
        paddr = self.l2_tlb.lookup(vpn)
        if paddr is not None:
            callback(paddr)
            return True
        status = self._walk_mshr.allocate(vpn, callback)
        if status == "merged":
            return True
        if status == "full":
            return False
        self._walk_queue.append(vpn)
        self._dispatch()
        self._wake()
        return True

    # -- walk-MSHR back-pressure -------------------------------------------------

    def _wake(self) -> None:
        """Walk state changed: every parked translation gets a retry slot."""
        if self._parked:
            parked, self._parked = self._parked, []
            self.walk_retries.wake(self, parked)

    def _run_retries(self, cycle: int) -> None:
        """Every GMMU's retries due at ``cycle``, in polling-chain order."""
        for _entered, _order, gmmu, rec in self.walk_retries.take(cycle):
            rec.last = cycle
            if not gmmu._attempt(rec.vpn, rec.callback):
                gmmu._parked.append(rec)

    # -- walker pool -------------------------------------------------------------

    def _dispatch(self) -> None:
        while self._walkers_busy < self.n_walkers and self._walk_queue:
            vpn = self._walk_queue.popleft()
            self._walkers_busy += 1
            start_cycle = self.now
            self.schedule(self.pwc.lookup_latency, self._begin_walk, vpn, start_cycle)

    def _begin_walk(self, vpn: int, start_cycle: int) -> None:
        self.stats.ptw_walks += 1
        hit_level = self.pwc.longest_prefix_level(vpn)
        path, paddr = self.page_table.walk(vpn)
        self._walk_step(vpn, start_cycle, paddr, path[hit_level:], 0)

    def _walk_step(
        self, vpn: int, start_cycle: int, paddr: int, path, index: int
    ) -> None:
        if index >= len(path):
            self._finish_walk(vpn, start_cycle, paddr)
            return
        _level, pte_addr, node_gpu = path[index]
        self.stats.ptw_pte_accesses += 1
        if node_gpu != self.gpu_id:
            self.stats.ptw_remote_pte_accesses += 1
        self.pte_access(
            pte_addr,
            node_gpu,
            partial(self._walk_step, vpn, start_cycle, paddr, path, index + 1),
        )

    def _finish_walk(self, vpn: int, start_cycle: int, paddr: int) -> None:
        self.pwc.insert_path(vpn)
        self.l2_tlb.insert(vpn, paddr)
        self.stats.ptw_latency.record(self.now - start_cycle)
        for waiter in self._walk_mshr.release(vpn):
            waiter(paddr)
        self._walkers_busy -= 1
        self._dispatch()
        self._wake()

    @property
    def walks_queued(self) -> int:
        return len(self._walk_queue)
