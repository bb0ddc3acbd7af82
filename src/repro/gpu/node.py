"""NodeCore: the node machinery shared by both drive modes.

A node slice is an engine plus the GPUs, switches, links and egress
controllers it owns: the whole node for
:class:`~repro.gpu.system.MultiGpuSystem`, a contiguous cluster range
for :class:`~repro.shard.shard_system.ShardSystem`.  Everything that
does not depend on how the slice is driven lives here, once, so byte
identity across drive modes holds by construction.  Subclasses supply
the drive: ``_start_kernel``, ``_on_wavefront_done`` and the calls that
advance the engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.core.controller import NetCrafterController
from repro.gpu.cta import KernelTrace, WorkloadTrace
from repro.gpu.gpu import Gpu
from repro.network.link import FlitLink
from repro.network.topology import Topology, build_topology
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.stats.assemble import SliceHarvest, controller_row, link_row
from repro.stats.collectors import RunStats
from repro.vm.gmmu import WalkRetrySchedule
from repro.vm.page_table import PageTable
from repro.vm.placement import AddressSpace, LaspPlacement


def check_trim_granularity(config: SystemConfig, netcrafter: NetCrafterConfig) -> None:
    """Reject a trimming configuration whose granularity is not the L1 sector."""
    if netcrafter.enable_trimming and netcrafter.trim_sector_bytes != config.l1_sector_bytes:
        raise ValueError(
            "trim granularity must match the L1 sector size "
            f"({netcrafter.trim_sector_bytes} != {config.l1_sector_bytes})"
        )


class NodeCore:
    """Construction, observability, dispatch and accounting of a node slice."""

    def __init__(
        self,
        config: SystemConfig,
        netcrafter: NetCrafterConfig,
        seed: int,
        obs: Observability,
        gpu_ids: Iterable[int],
        metric_prefix: str = "",
        **topology_options,
    ) -> None:
        check_trim_granularity(config, netcrafter)
        self.config = config
        self.netcrafter = netcrafter
        self.seed = seed
        self.obs = obs
        #: prepended to every metric name (``s<k>.`` on shard ``k``) so
        #: merged series from different shards never collide
        self.metric_prefix = metric_prefix
        self.engine = Engine()
        self.stats = RunStats()
        self.address_space = AddressSpace(config.n_gpus)
        self.page_table = PageTable(self.address_space, root_gpu=0)
        self.placement = LaspPlacement(self.address_space, self.page_table)
        # one schedule for every GMMU on the engine, so that walk-MSHR
        # retries due in the same cycle run in one event, in one order
        self.walk_retries = WalkRetrySchedule(self.engine)
        self.gpus: Dict[int, Gpu] = {
            gpu_id: Gpu(
                self.engine,
                f"gpu{gpu_id}",
                gpu_id,
                config,
                self.stats,
                self.address_space,
                self.page_table,
                self.walk_retries,
            )
            for gpu_id in gpu_ids
        }
        self.topology: Topology = build_topology(
            self.engine, config, self.gpus, self._make_controller, **topology_options
        )
        self._wire_observability()
        if config.faults.active:
            from repro.faults.layer import attach_fault_layer

            # this slice's outgoing inter-cluster links and owned GPUs'
            # RDMA engines: every fault event lands on exactly one slice
            attach_fault_layer(
                config.faults,
                inter_links=self.topology.inter_links,
                rdma_engines=[gpu.rdma for gpu in self.gpus.values()],
                stats=self.stats,
                flit_size=config.flit_size,
            )
        self._workload: Optional[WorkloadTrace] = None
        #: set once kernel 0 launched; a restored snapshot keeps it
        self._begun = False
        self._kernel_index = 0
        self._wavefronts_remaining = 0
        # per-phase accounting (phase-labelled workloads only): the
        # traffic-counter snapshot and cycle of the last kernel boundary;
        # all four ride along in snapshots, so resume replays phase
        # closure identically
        self._phase_tracking = False
        self._phase_name: Optional[str] = None
        self._phase_mark = (0, 0, 0, 0, 0)
        self._phase_cycle = 0

    def __setstate__(self, state: dict) -> None:
        """Restore a snapshot and rebind the metric gauge sources, which
        ``MetricsRegistry.__getstate__`` drops (they close over live
        simulator objects)."""
        self.__dict__.update(state)
        if self.obs.metrics is not None:
            self._register_metrics(self.obs.metrics)

    # -- construction helpers ----------------------------------------------

    def _make_controller(
        self, name: str, link: FlitLink, src_cluster: int, dst_cluster: int
    ) -> NetCrafterController:
        n_remote = max(1, self.config.n_clusters - 1)
        capacity = max(16, self.netcrafter.cluster_queue_entries // n_remote)
        return NetCrafterController(
            self.engine,
            name,
            link,
            flit_size=self.config.flit_size,
            config=self.netcrafter,
            queue_capacity=capacity,
            seed=self.seed + src_cluster * 97 + dst_cluster,
        )

    def _wire_observability(self) -> None:
        """Thread the tracer/profiler/metrics through the built slice."""
        self.engine.profiler = self.obs.profiler
        tracer = self.obs.tracer
        if tracer.enabled:
            for link in self.topology.inter_links:
                link.tracer = tracer
            for controller in self.topology.controllers:
                controller.tracer = tracer
            for gpu in self.gpus.values():
                gpu.rdma.tracer = tracer
        if self.obs.metrics is not None:
            self._register_metrics(self.obs.metrics)

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Register the standard gauge/counter set on ``metrics``.

        Cumulative wire counters are summed across inter-cluster links so
        the *final* sample equals the end-of-run ``LinkStats`` aggregates
        (an invariant the test suite checks); occupancy-style gauges are
        instantaneous.
        """
        prefix = self.metric_prefix
        inter = self.topology.inter_links

        def summed(attr):
            return lambda: sum(getattr(link.stats, attr) for link in inter)

        metrics.register(prefix + "inter.wire_bytes", summed("wire_bytes"))
        metrics.register(prefix + "inter.useful_bytes", summed("useful_bytes"))
        metrics.register(prefix + "inter.flits", summed("flits"))
        metrics.register(prefix + "inter.busy_cycles", summed("busy_cycles"))
        for controller in self.topology.controllers:
            queue = controller.queue
            name = f"{prefix}cq.{controller.name}"
            metrics.register(f"{name}.occupancy", lambda q=queue: len(q))
            metrics.register(
                f"{name}.blocked",
                lambda q=queue: len(q.blocked_partitions(self.engine.now)),
            )
            metrics.register(f"{name}.rejected", lambda q=queue: q.rejected)
        metrics.register(
            prefix + "mshr.l2.occupancy",
            lambda: sum(len(gpu.l2.mshr) for gpu in self.gpus.values()),
        )
        metrics.register(
            prefix + "mshr.l1.occupancy",
            lambda: sum(len(cu.mshr) for gpu in self.gpus.values() for cu in gpu.cus),
        )
        metrics.register(prefix + "engine.pending_events", self.engine.pending_events)
        metrics.register(
            prefix + "engine.events_processed", lambda: self.engine.events_processed
        )

    def _sample_metrics(self) -> None:
        """Periodic snapshot; stops once the run finished.

        Post-finish firings sample nothing so the series stays
        monotonic: :meth:`harvest` appends the authoritative final
        snapshot at the finish cycle itself.
        """
        if self.stats.finish_cycle is not None:
            return
        metrics = self.obs.metrics
        metrics.sample(self.engine.now)
        self.engine.schedule(metrics.interval, self._sample_metrics)

    # -- workload loading and dispatch -------------------------------------

    def load(self, workload: WorkloadTrace) -> None:
        """Validate the workload and premap every page per LASP."""
        workload.validate()
        for kernel in workload.kernels:
            for vpn, owner in kernel.page_owner.items():
                self.placement.map_page(vpn, owner)
        self._workload = workload
        self._phase_tracking = any(k.phase is not None for k in workload.kernels)

    def _begin(self) -> None:
        """Launch kernel 0 at cycle 0 and take the cycle-0 metrics baseline."""
        if self._workload is None:
            raise RuntimeError("no workload loaded")
        self._begun = True
        self._kernel_index = 0
        first = self._workload.kernels[0]
        self._phase_begin(first)
        self._start_kernel(first)
        if self.obs.metrics is not None:
            self._sample_metrics()

    def _dispatch_ctas(self, kernel: KernelTrace) -> None:
        """Round-robin the owned CTAs' wavefronts onto CUs and start them."""
        gpus = self.gpus
        rr_slot = {gpu_id: 0 for gpu_id in gpus}
        for cta in kernel.ctas:
            gpu = gpus.get(cta.gpu)
            if gpu is None:
                continue
            for wf in cta.wavefronts:
                cu = gpu.cus[rr_slot[cta.gpu] % len(gpu.cus)]
                rr_slot[cta.gpu] += 1
                cu.enqueue_wavefront(wf)
        for gpu in gpus.values():
            for cu in gpu.cus:
                cu.on_wavefront_done = self._on_wavefront_done
                cu.start()

    # -- per-phase accounting ----------------------------------------------

    def _phase_snapshot(self):
        """Inter-link + egress-controller totals at a quiesced boundary.

        Boundaries carry no in-flight traffic, so these integer deltas
        attribute every flit to exactly one phase.  Every inter-cluster
        link and controller is owned by exactly one slice, so sum-merging
        per-shard deltas reproduces the single-engine totals.
        """
        links = self.topology.inter_links
        ctrls = self.topology.controllers
        return (
            sum(link.stats.flits for link in links),
            sum(link.stats.wire_bytes for link in links),
            sum(link.stats.useful_bytes for link in links),
            sum(c.stats.flits_entered for c in ctrls),
            sum(c.stats.flits_absorbed for c in ctrls),
        )

    def _phase_begin(self, kernel: KernelTrace) -> None:
        if not self._phase_tracking:
            return
        self._phase_name = kernel.phase
        self.stats.set_live_phase(kernel.phase)
        self._phase_mark = self._phase_snapshot()
        self._phase_cycle = self.engine.now

    def _phase_close(self, boundary: int) -> None:
        """Attribute deltas to the finished kernel's phase at ``boundary``.

        The boundary cycle is run-global, so ``kernels`` and ``cycles``
        max-merge to the same value on every shard.
        """
        if self._phase_name is None:
            return
        mark = self._phase_mark
        snap = self._phase_snapshot()
        block = self.stats.phase(self._phase_name)
        block.kernels += 1
        block.cycles += boundary - self._phase_cycle
        block.inter_flits += snap[0] - mark[0]
        block.inter_wire_bytes += snap[1] - mark[1]
        block.inter_useful_bytes += snap[2] - mark[2]
        block.flits_entered += snap[3] - mark[3]
        block.flits_absorbed += snap[4] - mark[4]

    # -- end-of-run harvest ------------------------------------------------

    def harvest(self, cycle: int) -> SliceHarvest:
        """Close the metrics series at the finish ``cycle`` and snapshot
        this slice's result rows for :func:`~repro.stats.assemble.assemble_result`.

        Samples past ``cycle`` are dropped (a shard's window may
        overshoot the finish cycle; the single-engine sampler never
        does), so cumulative series end exactly at the aggregate totals.
        """
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.samples = [row for row in metrics.samples if row["cycle"] <= cycle]
            metrics.sample(cycle)
        topo = self.topology
        gpus = self.gpus.values()
        return SliceHarvest(
            stats=self.stats,
            events=self.engine.events_processed,
            inter_rows=[link_row(link) for link in topo.inter_links],
            up_rows=[link_row(link) for link in topo.gpu_uplinks.values()],
            down_rows=[link_row(link) for link in topo.gpu_downlinks.values()],
            controller_rows=[controller_row(c) for c in topo.controllers],
            l2_accesses=sum(gpu.l2.read_requests + gpu.l2.write_requests for gpu in gpus),
            dram_accesses=sum(gpu.dram.reads + gpu.dram.writes for gpu in gpus),
        )
