"""The NetCrafter controller: Trim -> Cluster Queue -> Stitch -> eject.

One controller instance guards one inter-cluster egress link (Figure 13).
Packets leaving the cluster are trimmed (if eligible), segmented into
flits, and staged in the Cluster Queue; a scheduler pumps the link one
flit per link-cycle, choosing partitions round-robin with an optional
strict preference for the PTW partition (Sequencing), stitching
candidates into each ejected parent flit, and pooling un-stitchable
flits for a bounded window (Selective Flit Pooling).

With every feature disabled the controller degenerates into a plain
FIFO egress, which is the paper's non-uniform baseline
(:class:`PassthroughController`).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, List, Optional, Tuple

from repro.core.cluster_queue import ClusterQueue, PTW_PARTITION
from repro.core.config import NetCrafterConfig
from repro.core.pooling import PoolingGovernor
from repro.core.sequencing import SequencingPolicy
from repro.core.stitching import StitchEngine
from repro.core.trimming import TrimEngine
from repro.network.flit import Flit, segment_packet
from repro.network.link import FlitLink
from repro.network.packet import Packet
from repro.obs.tracer import Traced
from repro.sim.component import Component
from repro.sim.engine import Engine

class EgressStats:
    """Traffic accounting at one inter-cluster egress port."""

    def __init__(self) -> None:
        self.packets_accepted = 0
        #: per-PacketType packet counts, for traffic-conservation checks
        self.packets_by_type = Counter()
        self.flits_entered = 0
        self.flits_sent = 0
        self.flits_absorbed = 0
        self.parents_stitched = 0
        self.ptw_flits = 0
        self.data_flits = 0
        self.ptw_bytes = 0
        self.data_bytes = 0
        #: histogram of useful bytes per flit at entry (pre-stitch), which
        #: reproduces Figure 6's padded-fraction distribution
        self.occupancy = Counter()


class NetCrafterController(Traced, Component):
    """Egress controller for a single destination cluster."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        link: FlitLink,
        flit_size: int,
        config: NetCrafterConfig,
        queue_capacity: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(engine, name)
        self.link = link
        self.flit_size = flit_size
        self.config = config
        capacity = (
            config.cluster_queue_entries if queue_capacity is None else queue_capacity
        )
        self.queue = ClusterQueue(
            capacity=capacity,
            partition_by_type=config.partition_by_type,
            separate_ptw=config.separate_ptw_partition,
            scheduler=config.scheduler,
        )
        self.trim_engine = (
            TrimEngine(config.trim_threshold_bytes, config.trim_sector_bytes)
            if config.enable_trimming
            else None
        )
        self.stitch_engine = (
            StitchEngine(config.stitch_search_depth)
            if config.enable_stitching
            else None
        )
        self.pooling = (
            PoolingGovernor(config.pooling_window, config.selective_pooling)
            if config.enable_pooling
            else None
        )
        self.sequencer = SequencingPolicy(
            config.effective_priority, config.data_priority_fraction, seed=seed
        )
        self.stats = EgressStats()
        #: the partition the sequencer serves first; fixed by its mode
        self._preferred = self.sequencer.preferred_partition
        #: packets waiting for Cluster Queue space, admitted FIFO
        self._pending: Deque[Tuple[List[Flit], bool]] = deque()
        self._next_pump: Optional[int] = None
        self._pump_generation = 0
        #: flit IDs: an admitted flit gets ``cq_seq * fid_span + fid_rank``;
        #: the topology builder sets the link's rank ``src * n_nodes + dst``
        #: and the span ``n_nodes**2``, so IDs are unique across the fabric
        self.fid_rank = 0
        self.fid_span = 1

    # -- packet ingress -----------------------------------------------------

    def accept_packet(self, packet: Packet) -> None:
        """Receive a packet routed toward this controller's link."""
        stats = self.stats
        stats.packets_accepted += 1
        stats.packets_by_type[packet.ptype] += 1
        trim_engine = self.trim_engine
        if trim_engine is not None:
            trimmed = trim_engine.maybe_trim(packet)
            if trimmed and self._trace_on:
                self._tracer.packet_event(
                    self.now,
                    "trim",
                    packet,
                    lane=self.name,
                    saved=packet.original_payload_bytes - packet.payload_bytes,
                )
        flits = segment_packet(packet, self.flit_size)
        priority_data = self.sequencer.tag_priority_data(packet)
        self._pending.append((flits, priority_data))
        self._admit_pending()
        self._maybe_release_pooled()
        self._request_pump(self.engine._now)

    def _admit_pending(self) -> None:
        """Move whole packets from the overflow list into the CQ.

        ``ClusterQueue.push`` and the entry statistics are inlined per
        packet: every flit of a packet shares one partition, and the
        packet is admitted only when the free entries (capacity less
        staged and reserved ones) hold all of its flits.  Staging sets
        the packet's unsent-flit count, which the link counts down.
        """
        pending = self._pending
        queue = self.queue
        stats = self.stats
        occupancy = stats.occupancy
        fid_span = self.fid_span
        fid_rank = self.fid_rank
        while pending:
            flits, priority_data = pending[0]
            n_flits = len(flits)
            if queue.capacity - queue._count - queue._reserved < n_flits:
                return
            pending.popleft()
            # the link counts this down and completes the packet with
            # its last flit; a multi-hop packet is restaged per hop
            flits[0].packet._unsent = n_flits
            key = queue.partition_key(flits[0], priority_data)
            part = queue._partitions.get(key)
            if part is None:
                part = queue._partition(key)
            staged = part.flits
            seq = queue._next_seq
            useful = 0
            for flit in flits:
                flit.cq_seq = seq
                flit.fid = seq * fid_span + fid_rank
                seq += 1
                staged.append(flit)
                used = flit.used_bytes
                occupancy[used] += 1
                useful += used
            queue._next_seq = seq
            queue._count += n_flits
            queue.total_accepted += n_flits
            stats.flits_entered += n_flits
            if flits[0].packet._ptw:
                stats.ptw_flits += n_flits
                stats.ptw_bytes += useful
            else:
                stats.data_flits += n_flits
                stats.data_bytes += useful
            if self._trace_on:
                for flit in flits:
                    self._tracer.flit_event(
                        self.now, "stage", flit, lane=self.name, part=key
                    )

    def _maybe_release_pooled(self) -> None:
        """Arrival-triggered re-evaluation of pooled flits.

        When new traffic provides a stitching candidate for a pooled flit
        at the head of a timer-blocked partition, the timer is released
        early: the pooled flit already got what it was waiting for, and
        holding the partition longer would only idle the link.
        """
        if self.stitch_engine is None or self.pooling is None:
            return
        if not self.config.early_release:
            return
        now = self.engine._now
        for partition in self.queue.blocked_partitions(now):
            head = partition.flits[0]
            if not head.pooled:
                continue
            if self.stitch_engine.find_candidate(head, self.queue) is not None:
                partition.blocked_until = now

    # -- pump scheduling ------------------------------------------------------

    def _request_pump(self, at: int) -> None:
        """Ensure a pump event is in flight no later than ``at``."""
        engine = self.engine
        now = engine._now
        if at < now:
            at = now
        next_pump = self._next_pump
        if next_pump is not None and next_pump <= at:
            return
        self._next_pump = at
        generation = self._pump_generation + 1
        self._pump_generation = generation
        engine.schedule_at(at, self._pump_event, generation)

    # -- egress pipeline ------------------------------------------------------

    def _pump_event(self, generation: int) -> None:
        """Eject at most one parent flit onto the link (the pump)."""
        if generation != self._pump_generation:
            return  # superseded by an earlier request
        self._next_pump = None
        link = self.link
        if not link.is_ready():
            self._request_pump(link.ready_at())
            return
        now = self.engine._now
        queue = self.queue
        preferred = self._preferred
        while True:
            partition, earliest_unblock = queue.select_partition(now, preferred)
            if partition is None:
                if earliest_unblock is None:
                    return
                # Work-conserving override: every staged flit sits behind a
                # pooling timer, so serving one (unstitched) beats idling
                # the link.  A short grace window still lets candidates
                # that are already in flight arrive and stitch.  Pooling
                # therefore only ever *reorders* service toward flits with
                # stitching prospects; it never starves the egress — see
                # DESIGN.md §7 for the deviation note.
                grace = self.config.pooling_grace
                override_at, partition = None, None
                for part in queue.blocked_partitions(now):
                    at = min(part.blocked_until, part.pooled_at + grace)
                    if override_at is None or at < override_at:
                        override_at, partition = at, part
                if now < override_at:
                    self._request_pump(override_at)
                    return
                partition.blocked_until = now
            # pop while holding the SRAM entry: if pooling returns the
            # parent via push_front, no intervening admission may have
            # stolen its slot (the un-reserved round-trip used to drive
            # _count above capacity)
            parent = queue.pop_reserved(partition)
            absorbed = 0
            if self.stitch_engine is not None:
                timers_before = queue.stale_timers_cleared
                segments_before = len(parent.segments)
                absorbed = self.stitch_engine.stitch_all(parent, queue)
                if absorbed and self._trace_on:
                    for segment in parent.segments[segments_before:]:
                        self._tracer.flit_event(
                            now,
                            "stitch",
                            segment.flit,
                            lane=self.name,
                            parent=parent.fid,
                            kind=segment.kind.value,
                            cost=segment.wire_bytes,
                        )
                if queue.stale_timers_cleared != timers_before:
                    # a pooled partition head was stitched into this parent,
                    # releasing its partition's timer; pump again as soon as
                    # the wire frees up so the (never-pooled) successor flit
                    # is not held hostage by the dead timer
                    self._request_pump(link.ready_at())
            if (
                absorbed == 0
                and self.pooling is not None
                and partition.key != PTW_PARTITION
                and self.pooling.should_pool(parent)
            ):
                # no candidate: defer this partition and try another now
                partition.blocked_until = self.pooling.pool(parent, now)
                partition.pooled_at = now
                queue.push_front(parent, partition.key, reserved=True)
                if self._trace_on:
                    self._tracer.flit_event(
                        now,
                        "pool",
                        parent,
                        lane=self.name,
                        part=partition.key,
                        until=partition.blocked_until,
                    )
                self._request_pump(partition.blocked_until)
                continue
            self._eject(parent, absorbed)
            return

    def _eject(self, parent: Flit, absorbed: int) -> None:
        queue = self.queue
        # the parent leaves for good: the SRAM entry pop_reserved held
        # for it opens up
        if queue._reserved <= 0:
            raise RuntimeError("eject without a reserved entry")
        queue._reserved -= 1
        if self.pooling is not None:
            self.pooling.record_outcome(parent, absorbed > 0)
        stats = self.stats
        if absorbed:
            stats.parents_stitched += 1
            stats.flits_absorbed += absorbed
        stats.flits_sent += 1
        if self._trace_on:
            self._tracer.flit_event(
                self.now,
                "eject",
                parent,
                lane=self.name,
                absorbed=absorbed,
                pooled=parent.pooled,
            )
        link = self.link
        link.send(parent)
        pending = self._pending
        if pending:
            self._admit_pending()
        if queue._count or pending:
            self._request_pump(link.ready_at())

    # -- introspection ---------------------------------------------------------

    @property
    def packets_trimmed(self) -> int:
        return self.trim_engine.packets_trimmed if self.trim_engine else 0

    @property
    def trim_bytes_saved(self) -> int:
        return self.trim_engine.bytes_saved if self.trim_engine else 0

    def stitch_rate(self) -> float:
        """Fraction of entered flits that ended up stitched into a parent."""
        if self.stats.flits_entered == 0:
            return 0.0
        return self.stats.flits_absorbed / self.stats.flits_entered


class PassthroughController(NetCrafterController):
    """Baseline FIFO egress: a NetCrafter controller with no features."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        link: FlitLink,
        flit_size: int,
        queue_capacity: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            engine,
            name,
            link,
            flit_size,
            NetCrafterConfig.baseline(),
            queue_capacity=queue_capacity,
            seed=seed,
        )
