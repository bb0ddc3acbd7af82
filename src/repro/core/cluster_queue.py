"""The Cluster Queue (CQ): NetCrafter's egress staging SRAM.

Section 4.4: "It is an SRAM structure located at the inter-GPU-cluster
network egress port. ... a two-level virtual structure: the first level,
CQ.dst, groups flits by destination cluster, while the second level,
CQ.type, subdivides each CQ.dst by request type."  A round-robin
scheduler allocates service turns across partitions; PTW-related flits
may live in their own partition so Sequencing and Selective Flit Pooling
can treat them specially.

One :class:`ClusterQueue` instance here serves a single destination
cluster (the CQ.dst level is realized as one instance per inter-cluster
link, each granted an equal share of the 1024-entry SRAM budget).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.network.flit import Flit

#: partition key for latency-critical page-table-walk flits
PTW_PARTITION = "ptw"
#: partition key for Figure 8's matched-fraction prioritized data flits
PRIORITY_DATA_PARTITION = "prio_data"
#: the single partition used when type partitioning is disabled (baseline)
FIFO_PARTITION = "fifo"


class QueuePartition:
    """One CQ.type partition: a FIFO of flits plus a pooling timer."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.flits: Deque[Flit] = deque()
        #: pooling timer: the scheduler skips this partition until expiry
        self.blocked_until = 0
        #: cycle the current pooling timer was set (work-conserving grace)
        self.pooled_at = 0

    def __len__(self) -> int:
        return len(self.flits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueuePartition {self.key} n={len(self.flits)} blk={self.blocked_until}>"


class CapacityError(RuntimeError):
    """An un-reserved ``push_front`` would drive ``_count`` past capacity."""


class ClusterQueue:
    """Type-partitioned, capacity-bounded staging queue for one dst cluster."""

    def __init__(
        self,
        capacity: int,
        partition_by_type: bool,
        separate_ptw: bool,
        scheduler: str = "age",
    ) -> None:
        if capacity <= 0:
            raise ValueError("cluster queue capacity must be positive")
        if scheduler not in ("age", "rr"):
            raise ValueError("scheduler must be 'age' or 'rr'")
        self.capacity = capacity
        self.partition_by_type = partition_by_type
        self.separate_ptw = separate_ptw
        self.scheduler = scheduler
        self._age_scheduler = scheduler == "age"
        self._partitions: Dict[str, QueuePartition] = {}
        self._order: List[str] = []
        self._rr_index = 0
        self._count = 0
        #: SRAM entries held for popped-but-possibly-returning flits; see
        #: :meth:`pop_reserved`
        self._reserved = 0
        self._next_seq = 0
        self.total_accepted = 0
        self.rejected = 0
        #: pooled heads stitched away whose partition timer we released
        self.stale_timers_cleared = 0

    # -- capacity ---------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    # -- keying -----------------------------------------------------------

    def partition_key(self, flit: Flit, priority_data: bool = False) -> str:
        """Pick the CQ.type partition for a flit."""
        if self.separate_ptw and flit.is_ptw:
            return PTW_PARTITION
        if priority_data:
            return PRIORITY_DATA_PARTITION
        if not self.partition_by_type:
            return FIFO_PARTITION
        return flit.packet.ptype.value

    def _partition(self, key: str) -> QueuePartition:
        part = self._partitions.get(key)
        if part is None:
            part = QueuePartition(key)
            self._partitions[key] = part
            self._order.append(key)
        return part

    def partitions(self) -> List[QueuePartition]:
        return [self._partitions[key] for key in self._order]

    # -- enqueue / dequeue --------------------------------------------------

    def push(self, flit: Flit, priority_data: bool = False) -> bool:
        """Stage a flit; ``False`` when the SRAM budget is exhausted.

        Reserved entries (a popped flit that may yet be returned by
        ``push_front``) count against the budget: admitting into the
        slot a pooled flit is about to reclaim would overflow the SRAM.
        """
        if self.capacity - self._count - self._reserved <= 0:
            self.rejected += 1
            return False
        key = self.partition_key(flit, priority_data)
        flit.cq_seq = self._next_seq
        self._next_seq += 1
        part = self._partitions.get(key)
        if part is None:
            part = self._partition(key)
        part.flits.append(flit)
        self._count += 1
        self.total_accepted += 1
        return True

    def push_front(self, flit: Flit, key: str, reserved: bool = False) -> None:
        """Return a flit to the head of its partition.

        With ``reserved=True`` the flit re-occupies an entry held by
        :meth:`pop_reserved`.  Without a reservation the capacity check
        applies just like :meth:`push` — silently exceeding it (the
        pre-fix behaviour) drove ``_count`` above ``capacity`` and
        the free entries negative whenever an intervening ``push``
        filled the queue, so that case now raises :class:`CapacityError`.
        """
        if reserved:
            if self._reserved <= 0:
                raise RuntimeError("push_front(reserved=True) without a reservation")
            self._reserved -= 1
        elif self._count + self._reserved >= self.capacity:
            raise CapacityError(
                f"push_front would exceed capacity "
                f"({self._count} staged + {self._reserved} reserved "
                f"of {self.capacity})"
            )
        self._partition(key).flits.appendleft(flit)
        self._count += 1

    def pop_from(self, part: QueuePartition) -> Flit:
        flit = part.flits.popleft()
        self._count -= 1
        return flit

    def pop_reserved(self, part: QueuePartition) -> Flit:
        """Pop the partition head while keeping its SRAM entry reserved.

        The controller's pump pops a parent flit *before* deciding its
        fate; if pooling returns it via ``push_front`` it must get its
        entry back even when admissions happened in between.  The caller
        settles the reservation with exactly one of
        ``push_front(..., reserved=True)`` or, when the flit leaves for
        good, by giving the entry up (the controller's eject decrements
        ``_reserved``).
        """
        flit = self.pop_from(part)
        self._reserved += 1
        return flit

    def remove_flit(self, flit: Flit, part: Optional[QueuePartition] = None) -> bool:
        """Remove a specific staged flit (when it gets stitched away).

        ``part``, when given, is the partition holding the flit (the
        stitch search knows it, and finds the flit near its head), and
        only that partition is searched.

        A pooled flit at the head of its partition owns that partition's
        pooling timer.  If the stitch search absorbs it into another
        parent, the timer must die with it — otherwise the successor
        flit, which was never pooled, sits blocked until the dead timer
        expires.
        """
        for part in self._partitions.values() if part is None else (part,):
            was_head = bool(part.flits) and part.flits[0] is flit
            try:
                part.flits.remove(flit)
            except ValueError:
                continue
            self._count -= 1
            if was_head and flit.pooled and part.blocked_until:
                part.blocked_until = 0
                part.pooled_at = 0
                self.stale_timers_cleared += 1
            return True
        return False

    # -- scheduling ---------------------------------------------------------

    def select_partition(
        self, now: int, prefer: Optional[str] = None
    ) -> Tuple[Optional[QueuePartition], Optional[int]]:
        """Choose the partition to serve next.

        ``prefer`` (e.g. the PTW partition under Sequencing) is served
        whenever non-empty, regardless of scheduling order or timers (the
        paper's "bias towards prioritizing the cluster queue containing
        PTW-related flits"; its timer is never set).  Otherwise service
        follows the configured policy over non-empty, non-blocked
        partitions: ``"age"`` serves the partition holding the oldest
        staged flit (keeping the no-feature configuration equivalent to
        the baseline FIFO egress), ``"rr"`` is the paper's per-partition
        round-robin.

        Returns ``(partition, None)`` when one is serviceable, or
        ``(None, earliest_unblock)`` when flits exist but all their
        partitions are pooling-blocked (``earliest_unblock`` tells the
        caller when to retry), or ``(None, None)`` when truly empty.
        """
        if prefer is not None:
            preferred = self._partitions.get(prefer)
            if preferred is not None and preferred.flits:
                return preferred, None
        if self._count == 0 or not self._order:
            return None, None
        if not self._age_scheduler:
            return self._select_round_robin(now)
        best: Optional[QueuePartition] = None
        best_seq = 0
        earliest: Optional[int] = None
        for part in self._partitions.values():
            flits = part.flits
            if not flits:
                continue
            blocked_until = part.blocked_until
            if now < blocked_until:
                if earliest is None or blocked_until < earliest:
                    earliest = blocked_until
                continue
            seq = flits[0].cq_seq
            if best is None or seq < best_seq:
                best, best_seq = part, seq
        if best is not None:
            return best, None
        return None, earliest

    def _select_round_robin(
        self, now: int
    ) -> Tuple[Optional[QueuePartition], Optional[int]]:
        n = len(self._order)
        earliest: Optional[int] = None
        for step in range(n):
            key = self._order[(self._rr_index + step) % n]
            part = self._partitions[key]
            if not part.flits:
                continue
            if now < part.blocked_until:
                if earliest is None or part.blocked_until < earliest:
                    earliest = part.blocked_until
                continue
            self._rr_index = (self._rr_index + step + 1) % n
            return part, None
        return None, earliest

    def blocked_partitions(self, now: int) -> List[QueuePartition]:
        """Non-empty partitions currently under a pooling timer."""
        return [
            part
            for part in self._partitions.values()
            if part.flits and now < part.blocked_until
        ]

    def stitch_candidates(
        self, parent: Flit, search_depth: int
    ) -> Iterable[Flit]:
        """Yield staged flits visible to the stitch search for ``parent``.

        All partitions share the parent's destination cluster (the CQ.dst
        level) so every staged flit is route-compatible; the search window
        is bounded to the first ``search_depth`` flits of each partition.
        """
        for part in self._partitions.values():
            for idx, flit in enumerate(part.flits):
                if idx >= search_depth:
                    break
                if flit is parent:
                    continue
                yield flit
