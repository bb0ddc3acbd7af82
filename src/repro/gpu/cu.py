"""Compute Unit: wavefront replay through the L1 TLB and L1 cache.

Each CU hosts up to ``max_wavefronts_per_cu`` resident wavefronts; each
wavefront replays its coalesced access trace with ``compute_delay``
cycles between instructions and one outstanding memory access (latency
tolerance comes from wavefront-level parallelism, as on real GPUs).

The access pipeline follows Section 2: L1 TLB (1 cycle) -> GMMU on a
miss -> L1 vector cache (20 cycles, write-through/no-allocate, 32-entry
MSHR, sector-capable) -> local L2 or the RDMA engine for remote lines.
Remote data is cached only in the L1 (never the local L2 partition).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Optional, Tuple

from repro.config import SystemConfig
from repro.gpu.cta import MemAccess, WavefrontTrace
from repro.memory.cache import CacheLine, SectorCache, sector_mask_for
from repro.memory.mshr import Mshr
from repro.network.packet import Packet
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats
from repro.vm.page_table import PAGE_SIZE
from repro.vm.tlb import Tlb

#: backoff before retrying an access stalled on a full L1 MSHR
_MSHR_RETRY_CYCLES = 8


class _Wavefront:
    """Execution state of one resident wavefront."""

    __slots__ = ("trace", "index", "outstanding")

    def __init__(self, trace: WavefrontTrace) -> None:
        self.trace = trace
        self.index = 0
        self.outstanding = 0


class ComputeUnit(Component):
    """One CU with its private L1 TLB and L1 vector cache."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        gpu: "Gpu",  # noqa: F821 - repro.gpu.gpu.Gpu, avoided for import order
        cu_id: int,
        config: SystemConfig,
        stats: RunStats,
    ) -> None:
        super().__init__(engine, name)
        self.gpu = gpu
        self.cu_id = cu_id
        self.config = config
        self.stats = stats
        self.l1_tlb = Tlb(
            config.l1_tlb_entries,
            lookup_latency=config.l1_tlb_latency,
            name=f"{name}.l1tlb",
        )
        self.l1 = SectorCache(
            size_bytes=config.l1_size,
            ways=config.l1_ways,
            line_bytes=config.line_bytes,
            sector_bytes=config.l1_sector_bytes,
            name=f"{name}.l1",
        )
        self.mshr = Mshr(config.l1_mshr_entries, name=f"{name}.l1mshr")
        self._wf_queue: Deque[WavefrontTrace] = deque()
        self._active = 0
        self.on_wavefront_done: Optional[Callable[[], None]] = None
        self.wavefronts_completed = 0

    # -- scheduling ---------------------------------------------------------

    def enqueue_wavefront(self, trace: WavefrontTrace) -> None:
        self._wf_queue.append(trace)

    def start(self) -> None:
        """Fill the resident slots; called at kernel launch."""
        self.schedule(0, self._launch_waiting)

    def _launch_waiting(self) -> None:
        while self._active < self.config.max_wavefronts_per_cu and self._wf_queue:
            trace = self._wf_queue.popleft()
            self._active += 1
            self._advance(_Wavefront(trace))

    def _advance(self, wf: _Wavefront) -> None:
        """Issue accesses up to the wavefront's MLP window; retire when
        everything issued has also completed."""
        accesses = wf.trace.accesses
        n_accesses = len(accesses)
        if wf.index < n_accesses:
            mlp = self.config.wavefront_mlp
            delay = self.config.compute_delay
            while wf.outstanding < mlp and wf.index < n_accesses:
                access = accesses[wf.index]
                wf.index += 1
                wf.outstanding += 1
                self.schedule(delay, self._issue, wf, access)
        if wf.index >= n_accesses and wf.outstanding == 0:
            self._active -= 1
            self.wavefronts_completed += 1
            self._launch_waiting()
            if self.on_wavefront_done is not None:
                self.on_wavefront_done()

    def _resume(self, wf: _Wavefront) -> None:
        """Completion continuation: one access retired."""
        wf.outstanding -= 1
        self._advance(wf)

    # -- translation ----------------------------------------------------------

    def _issue(self, wf: _Wavefront, access: MemAccess) -> None:
        self.stats.mem_ops += 1
        if access.is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        self.schedule(self.l1_tlb.lookup_latency, self._after_l1_tlb, wf, access)

    def _after_l1_tlb(self, wf: _Wavefront, access: MemAccess) -> None:
        # Tlb.lookup and _with_physical inlined on the hit path
        vaddr = access.vaddr
        vpn = vaddr // PAGE_SIZE
        tlb = self.l1_tlb
        tlb_set = tlb._sets[vpn % tlb.n_sets]
        # pop+reinsert refreshes the LRU position (None marks a miss)
        page_paddr = tlb_set.pop(vpn, None)
        if page_paddr is not None:
            tlb_set[vpn] = page_paddr
            tlb.hits += 1
            self.schedule(
                self.config.l1_latency,
                self._l1_access,
                wf,
                access,
                page_paddr + vaddr % PAGE_SIZE,
            )
            return
        tlb.misses += 1
        self.gpu.gmmu.translate(vpn, partial(self._translated, wf, access))

    def _translated(self, wf: _Wavefront, access: MemAccess, page_paddr: int) -> None:
        self.l1_tlb.insert(access.vpn, page_paddr)
        pa = page_paddr + (access.vaddr % PAGE_SIZE)
        self.schedule(self.config.l1_latency, self._l1_access, wf, access, pa)

    # -- L1 access ---------------------------------------------------------------

    def _l1_access(self, wf: _Wavefront, access: MemAccess, pa: int) -> None:
        if access.is_write:
            self._do_write(wf, access, pa)
            return
        # SectorCache.sector_mask and SectorCache.lookup, inlined
        l1 = self.l1
        line_bytes = l1.line_bytes
        nbytes = access.nbytes
        needed_mask = l1._mask_cache.get((pa % line_bytes, nbytes))
        if needed_mask is None:
            needed_mask = l1.sector_mask(pa, nbytes)
        line_index = pa // line_bytes
        n_sets = l1.n_sets
        cache_set = l1._sets.get(line_index % n_sets)
        line = None
        if cache_set is not None:
            tag = line_index // n_sets
            line = cache_set.pop(tag, None)
        if line is None:
            l1.misses += 1
            self.stats.l1_misses += 1
        else:
            cache_set[tag] = line  # refresh LRU position
            if line.valid_sectors & needed_mask == needed_mask:
                l1.hits += 1
                self.stats.l1_hits += 1
                # _resume, inlined
                wf.outstanding -= 1
                self._advance(wf)
                return
            l1.sector_misses += 1
            self.stats.l1_sector_misses += 1
        self._fetch(access, pa, needed_mask, partial(self._resume, wf))

    def _do_write(self, wf: _Wavefront, access: MemAccess, pa: int) -> None:
        """Write-through, write-no-allocate, posted completion."""
        # SectorCache.write, inlined: a present line's LRU position refreshes
        l1 = self.l1
        line_bytes = l1.line_bytes
        line_index = pa // line_bytes
        n_sets = l1.n_sets
        cache_set = l1._sets.get(line_index % n_sets)
        if cache_set is not None:
            tag = line_index // n_sets
            line = cache_set.pop(tag, None)
            if line is not None:
                cache_set[tag] = line
        line_pa = line_index * line_bytes
        gpu = self.gpu
        home = gpu.address_space.home_of(line_pa)
        if home == gpu.gpu_id:
            self.stats.local_writes += 1
            if gpu.directory is not None:
                gpu.coherence_write(line_pa, home)
            gpu.l2.request(line_pa, line_bytes, True, _noop)
        else:
            if gpu.cluster_of_gpu[home] != gpu.cluster_id:
                self.stats.remote_writes_inter += 1
            else:
                self.stats.remote_writes_intra += 1
            gpu.rdma.remote_write(home, line_pa)
        # _resume, inlined
        wf.outstanding -= 1
        self._advance(wf)

    # -- read fill path -------------------------------------------------------------

    def _fetch(
        self,
        access: MemAccess,
        pa: int,
        needed_mask: int,
        on_ready: Callable[[], None],
    ) -> None:
        l1 = self.l1
        line_pa = pa - pa % l1.line_bytes
        sector_fetch = self.config.l1_fetch_mode == "sector"
        fetch_mask = needed_mask if sector_fetch else l1.full_mask
        key = (line_pa, fetch_mask)
        status = self.mshr.allocate(key, (needed_mask, access, pa, on_ready))
        if status == "merged":
            return
        if status == "full":
            self.stats.l1_mshr_stall_retries += 1
            self.schedule(
                _MSHR_RETRY_CYCLES, self._fetch, access, pa, needed_mask, on_ready
            )
            return
        self._issue_fill(access, pa, line_pa, needed_mask, fetch_mask, sector_fetch, key)

    def _issue_fill(
        self,
        access: MemAccess,
        pa: int,
        line_pa: int,
        needed_mask: int,
        fetch_mask: int,
        sector_fetch: bool,
        key: Tuple[int, int],
    ) -> None:
        gpu = self.gpu
        home = gpu.address_space.home_of(line_pa)
        if home == gpu.gpu_id:
            self.stats.local_reads += 1
            if gpu.directory is not None:
                gpu.record_sharer(line_pa, home)
            gpu.l2.request(
                line_pa,
                self.config.line_bytes,
                False,
                partial(self._fill, key, line_pa, fetch_mask if sector_fetch else None),
            )
            return
        crosses = gpu.cluster_of_gpu[home] != gpu.cluster_id
        if crosses:
            self.stats.remote_reads_inter += 1
            self.stats.record_read_request_bytes(access.nbytes)
        else:
            self.stats.remote_reads_intra += 1
        # trim bits: request fits within one aligned sector window (the
        # needed mask has a single bit)
        sector = self.config.l1_sector_bytes
        offset_in_line = pa % self.config.line_bytes
        trim_allowed = needed_mask & (needed_mask - 1) == 0
        gpu.rdma.remote_read(
            dst_gpu=home,
            addr=line_pa,
            bytes_needed=access.nbytes,
            sector_offset=offset_in_line // sector,
            on_complete=partial(self._fill_from_packet, key, line_pa),
            trim_allowed=trim_allowed,
            sector_fetch=sector_fetch,
            fetch_sector_mask=fetch_mask if sector_fetch else None,
        )

    def _fill_from_packet(self, key: Tuple[int, int], line_pa: int, packet: Packet) -> None:
        if packet.trimmed:
            # trimmed response: one aligned window of payload_bytes
            offset = packet.sector_offset * packet.payload_bytes
            mask = sector_mask_for(
                offset,
                packet.payload_bytes,
                self.config.line_bytes,
                self.l1.sector_bytes,
            )
        elif packet.filled_sector_mask is not None:
            mask = packet.filled_sector_mask
        else:
            mask = None
        self._fill(key, line_pa, mask)

    def _fill(self, key: Tuple[int, int], line_pa: int, mask: Optional[int]) -> None:
        # SectorCache.fill and Mshr.release, inlined
        l1 = self.l1
        filled_mask = mask if mask is not None else l1.full_mask
        line_index = line_pa // l1.line_bytes
        n_sets = l1.n_sets
        set_index = line_index % n_sets
        cache_set = l1._sets.get(set_index)
        if cache_set is None:
            cache_set = l1._sets[set_index] = {}
        tag = line_index // n_sets
        l1.fills += 1
        line = cache_set.pop(tag, None)
        if line is None:
            if len(cache_set) >= l1.ways:
                evicted = cache_set.pop(next(iter(cache_set)))  # LRU victim
                l1.evictions += 1
                if evicted.dirty:
                    l1.dirty_evictions += 1
            line = CacheLine(tag, filled_mask)
        else:
            line.valid_sectors |= filled_mask
        cache_set[tag] = line  # MRU end
        for needed_mask, access, pa, on_ready in self.mshr._entries.pop(key):
            if needed_mask & filled_mask == needed_mask:
                on_ready()
            else:
                # a merged waiter needed sectors this fill did not bring
                self.stats.l1_refetches += 1
                self.schedule(0, self._fetch, access, pa, needed_mask, on_ready)

    # -- maintenance --------------------------------------------------------------

    def invalidate_l1(self) -> None:
        """Software-coherence L1 flush at kernel boundaries.

        TLBs survive kernel boundaries (translations stay valid); only the
        write-through L1's data is dropped, matching the paper's
        software-managed coherence model.
        """
        self.l1.clear()


def _noop() -> None:
    """Completion sink for posted local writes."""
