"""One GPU assembly: CUs, L2, DRAM, GMMU, RDMA engine, network port."""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.config import SystemConfig
from repro.gpu.cu import ComputeUnit
from repro.memory.coherence import Directory
from repro.memory.dram import Dram
from repro.memory.l2 import L2Cache
from repro.memory.rdma import RdmaEngine
from repro.network.link import PacketLink
from repro.network.packet import Packet
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats
from repro.vm.gmmu import Gmmu, WalkRetrySchedule
from repro.vm.page_table import PageTable
from repro.vm.placement import AddressSpace
from repro.vm.tlb import PageWalkCache, Tlb


class Gpu(Component):
    """One GPU chiplet of the multi-GPU node (Figure 2)."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        gpu_id: int,
        config: SystemConfig,
        stats: RunStats,
        address_space: AddressSpace,
        page_table: PageTable,
        walk_retries: Optional[WalkRetrySchedule] = None,
    ) -> None:
        super().__init__(engine, name)
        self.gpu_id = gpu_id
        self.config = config
        self.stats = stats
        self.address_space = address_space
        self.cluster_id = config.cluster_of(gpu_id)
        #: cluster of every GPU of the node, by GPU id: the remote-access
        #: paths read it instead of re-validating ids per access
        self.cluster_of_gpu = tuple(map(config.cluster_of, range(config.n_gpus)))

        self.dram = Dram(
            engine,
            f"{name}.dram",
            latency=config.dram_latency,
            bytes_per_cycle=config.dram_bytes_per_cycle,
            max_outstanding=config.dram_max_outstanding,
        )
        self.l2 = L2Cache(
            engine,
            f"{name}.l2",
            dram=self.dram,
            size_bytes=config.l2_size,
            ways=config.l2_ways,
            banks=config.l2_banks,
            lookup_latency=config.l2_latency,
            mshr_entries=config.l2_mshr_entries,
            line_bytes=config.line_bytes,
        )
        self.l2_tlb = Tlb(
            config.l2_tlb_entries,
            assoc=config.l2_tlb_assoc,
            lookup_latency=config.l2_tlb_latency,
            name=f"{name}.l2tlb",
        )
        self.pwc = PageWalkCache(config.pwc_entries, config.pwc_latency)
        self.gmmu = Gmmu(
            engine,
            f"{name}.gmmu",
            gpu_id=gpu_id,
            page_table=page_table,
            l2_tlb=self.l2_tlb,
            pwc=self.pwc,
            pte_access=self._pte_access,
            stats=stats,
            n_walkers=config.n_walkers,
            walk_mshr_entries=config.walk_mshr_entries,
            walk_retries=walk_retries,
        )
        self.directory: Optional[Directory] = (
            Directory(gpu_id, config.line_bytes)
            if config.coherence == "hardware"
            else None
        )
        self.rdma = RdmaEngine(
            engine,
            f"{name}.rdma",
            gpu_id=gpu_id,
            cluster_of=self.cluster_of_gpu.__getitem__,
            stats=stats,
            sector_bytes=config.l1_sector_bytes,
            n_gpus=config.n_gpus,
        )
        if self.directory is not None:
            self.rdma.attach(
                inject=self.inject_packet,
                l2_request=self.l2.request,
                on_read_served=self.record_sharer,
                on_write_served=self.coherence_write,
                on_invalidate=self.invalidate_line,
            )
        else:
            self.rdma.attach(inject=self.inject_packet, l2_request=self.l2.request)
        self.cus: List[ComputeUnit] = [
            ComputeUnit(engine, f"{name}.cu{i}", self, i, config, stats)
            for i in range(config.cus_per_gpu)
        ]
        self._uplink: Optional[PacketLink] = None

    # -- wiring --------------------------------------------------------------

    def attach_uplink(self, link: PacketLink) -> None:
        """Connect the GPU's injection port to its cluster switch."""
        self._uplink = link

    def inject_packet(self, packet: Packet) -> None:
        """Send a packet toward the cluster switch, with backpressure."""
        if self._uplink is None:
            raise RuntimeError(f"{self.name} has no uplink attached")
        if not self._uplink.send(packet):
            self._uplink.notify_on_space(partial(self.inject_packet, packet))

    # -- services used by CUs and the GMMU ---------------------------------------

    def cluster_of(self, gpu_id: int) -> int:
        return self.config.cluster_of(gpu_id)

    def _pte_access(self, pte_addr: int, node_gpu: int, callback: Callable[[], None]) -> None:
        """One page-walk PTE read, local or across the network."""
        if node_gpu == self.gpu_id:
            self.l2.request(pte_addr, 8, False, callback)
        else:
            self.rdma.remote_pt_read(node_gpu, pte_addr, callback)

    # -- hardware-coherence extension ---------------------------------------------

    def record_sharer(self, addr: int, sharer_gpu: int) -> None:
        """Directory hook: a GPU just cached one of our home lines."""
        if self.directory is not None:
            self.directory.record_sharer(addr, sharer_gpu)

    def coherence_write(self, addr: int, writer_gpu: int) -> None:
        """Directory hook: a write hit one of our home lines; invalidate
        every other sharer's L1 copy via INV_REQ packets."""
        if self.directory is None:
            return
        for target in self.directory.take_invalidation_targets(addr, writer_gpu):
            if target == self.gpu_id:
                self.invalidate_line(addr)
            else:
                self.rdma.remote_invalidate(target, addr)

    def invalidate_line(self, addr: int) -> None:
        """Drop any L1 copies of a line on this GPU (INV_REQ handling)."""
        for cu in self.cus:
            cu.l1.invalidate(addr)

    # -- kernel-boundary maintenance ------------------------------------------------

    def invalidate_l1s(self) -> None:
        for cu in self.cus:
            cu.invalidate_l1()
