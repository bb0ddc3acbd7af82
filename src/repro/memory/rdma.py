"""Per-GPU RDMA engine: the gateway for all remote (inter-GPU) accesses.

Following the paper's baseline (Section 2.1, [9]), every access whose
home is another GPU is converted into a network packet by the local RDMA
engine; the home GPU's RDMA engine services it against that GPU's L2 and
returns the matching response packet.  The engine also measures
end-to-end remote read latency, split by whether the access crossed the
inter-cluster (lower-bandwidth) network.

Sector conventions: a request with ``sector_fetch=True`` asks for only
the sectors in ``filled_sector_mask`` (the L1 sector-cache baseline);
``trim_allowed`` plus ``bytes_needed``/``sector_offset`` are the trim
bits that let the NetCrafter Trim Engine shrink the response in flight.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.network.packet import CACHE_LINE_BYTES, Packet, PacketType
from repro.obs.tracer import Traced
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats

# the packet types as module globals: loading a global is one dict probe,
# where ``PacketType.READ_REQ`` goes through the Enum metaclass each time
_READ_REQ = PacketType.READ_REQ
_READ_RSP = PacketType.READ_RSP
_WRITE_REQ = PacketType.WRITE_REQ
_WRITE_RSP = PacketType.WRITE_RSP
_PT_REQ = PacketType.PT_REQ
_PT_RSP = PacketType.PT_RSP
_INV_REQ = PacketType.INV_REQ
_INV_RSP = PacketType.INV_RSP


class RdmaEngine(Traced, Component):
    """Requester and responder logic for one GPU."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        gpu_id: int,
        cluster_of: Callable[[int], int],
        stats: RunStats,
        sector_bytes: int = 16,
        n_gpus: int = 1,
    ) -> None:
        super().__init__(engine, name)
        self.gpu_id = gpu_id
        self.cluster_of = cluster_of
        self.cluster_id = cluster_of(gpu_id)
        self.stats = stats
        self.sector_bytes = sector_bytes
        #: set by the GPU assembly: injects a packet toward the switch
        self._inject: Optional[Callable[[Packet], None]] = None
        #: set by the GPU assembly: local L2 access for servicing requests
        self._l2_request: Optional[Callable[[int, int, bool, Callable[[], None]], None]] = None
        self.requests_sent = 0
        self.requests_served = 0
        self.responses_received = 0
        self.outstanding_writes = 0
        self.outstanding_invalidations = 0
        #: requester table: tag -> (request, send cycle, crosses cluster,
        #: on_complete).  The tag travels in the 4 B header metadata and
        #: the home GPU copies it onto the response, which is matched
        #: here (Section 2.1's packet ID + requester table)
        self._outstanding: Dict[
            int, Tuple[Packet, int, bool, Optional[Callable[..., None]]]
        ] = {}
        self._next_tag = 0
        #: packet IDs: this engine stamps ``gpu_id + k * n_gpus`` on the
        #: k-th packet it sends, so IDs are unique across the node without
        #: a shared counter and equal in every drive mode
        self._next_pid = gpu_id
        self._pid_step = n_gpus
        #: cycle at which both outstanding counters last returned to zero,
        #: and the schedule key of the event that drained them; sharded
        #: coordinators read these to time kernel-boundary quiesce (the
        #: skey orders the drain against the quiesce poll chain)
        self.last_drain_cycle = 0
        self.last_drain_skey = 0
        # hardware-coherence hooks (None under software coherence)
        self._on_read_served: Optional[Callable[[int, int], None]] = None
        self._on_write_served: Optional[Callable[[int, int], None]] = None
        self._on_invalidate: Optional[Callable[[int], None]] = None

    #: fault layer: timeout/retry backstop config + counters, set by
    #: :meth:`attach_faults` (class-attribute defaults keep the
    #: fault-free request path free of per-packet timers)
    _faults = None
    _fault_stats = None

    # -- wiring ------------------------------------------------------------

    def attach_faults(self, config, fault_stats) -> None:
        """Arm the end-to-end timeout/retry backstop on every request.

        The link-level retransmit path recovers almost everything; the
        backstop exists for requests the link layer *abandons* (retry
        budget exhausted), re-issuing them as fresh packets with capped
        exponential backoff so forward progress never depends on a
        single flit surviving.
        """
        self._faults = config
        self._fault_stats = fault_stats

    def attach(
        self,
        inject: Callable[[Packet], None],
        l2_request,
        on_read_served: Optional[Callable[[int, int], None]] = None,
        on_write_served: Optional[Callable[[int, int], None]] = None,
        on_invalidate: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Wire the engine to its GPU.

        The three optional hooks implement the hardware-coherence
        extension: sharer recording on served reads, directory lookup on
        served writes, and L1 invalidation on received INV_REQ packets.
        """
        self._inject = inject
        self._l2_request = l2_request
        self._on_read_served = on_read_served
        self._on_write_served = on_write_served
        self._on_invalidate = on_invalidate

    def _crosses_cluster(self, dst_gpu: int) -> bool:
        return self.cluster_of(dst_gpu) != self.cluster_id

    # -- requester side ------------------------------------------------------

    def remote_read(
        self,
        dst_gpu: int,
        addr: int,
        bytes_needed: int,
        sector_offset: int,
        on_complete: Callable[[Packet], None],
        trim_allowed: bool = True,
        sector_fetch: bool = False,
        fetch_sector_mask: Optional[int] = None,
    ) -> None:
        """Fetch a (possibly sectored) cache line from ``dst_gpu``."""
        packet = Packet(
            ptype=_READ_REQ,
            src_gpu=self.gpu_id,
            dst_gpu=dst_gpu,
            addr=addr,
            bytes_needed=bytes_needed,
            sector_offset=sector_offset,
            trim_allowed=trim_allowed,
            sector_fetch=sector_fetch,
            filled_sector_mask=fetch_sector_mask,
        )
        self._send(packet, on_complete)

    def remote_write(self, dst_gpu: int, addr: int) -> None:
        """Posted write-through of a line to its home GPU."""
        packet = Packet(
            ptype=_WRITE_REQ,
            src_gpu=self.gpu_id,
            dst_gpu=dst_gpu,
            addr=addr,
        )
        self.outstanding_writes += 1
        self._send(packet, None)

    def remote_pt_read(
        self, dst_gpu: int, addr: int, on_complete: Callable[[], None]
    ) -> None:
        """Read one PTE from a remote page-table node (PTW traffic)."""
        if self._crosses_cluster(dst_gpu):
            self.stats.ptw_inter_pte_accesses += 1
        packet = Packet(
            ptype=_PT_REQ,
            src_gpu=self.gpu_id,
            dst_gpu=dst_gpu,
            addr=addr,
        )
        self._send(packet, on_complete)

    def remote_invalidate(self, dst_gpu: int, addr: int) -> None:
        """Send a coherence invalidation for a line to a sharer GPU."""
        packet = Packet(
            ptype=_INV_REQ,
            src_gpu=self.gpu_id,
            dst_gpu=dst_gpu,
            addr=addr,
        )
        self.outstanding_invalidations += 1
        self.stats.coherence_inv_sent += 1
        if self._crosses_cluster(dst_gpu):
            self.stats.coherence_inv_sent_inter += 1
        self._send(packet, None)

    def _send(
        self, packet: Packet, on_complete: Optional[Callable[..., None]]
    ) -> None:
        """Tag ``packet``, enter it in the requester table, inject it.

        ``on_complete`` gets the response packet, except for PT reads,
        whose walker continuation takes no argument.
        """
        if self._inject is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        tag = self._next_tag
        self._next_tag = tag + 1
        packet.tag = tag
        packet.pid = self._next_pid
        self._next_pid += self._pid_step
        self._outstanding[tag] = (
            packet, self.now, self._crosses_cluster(packet.dst_gpu), on_complete
        )
        packet.inject_cycle = self.now
        self.requests_sent += 1
        if self._trace_on:
            self._tracer.packet_event(self.now, "inject", packet, lane=self.name)
        self._inject(packet)
        if self._faults is not None:
            self.schedule(self._faults.rdma_timeout, self._backstop, tag, 0)

    def _backstop(self, tag: int, attempt: int) -> None:
        """Timeout fired: re-issue the request unless it completed."""
        entry = self._outstanding.get(tag)
        if entry is None:
            return
        packet = entry[0]
        cfg = self._faults
        if attempt + 1 > cfg.max_rdma_retries:
            raise RuntimeError(
                f"{self.name}: request tag {tag} ({packet.ptype.name} to "
                f"GPU {packet.dst_gpu}, addr {packet.addr:#x}) unanswered "
                f"after {attempt + 1} RDMA timeouts"
            )
        # a fresh packet (new pid) re-enters the network: the sending
        # link counts unsent flits per packet, so restaging the original
        # while some of its flits are still queued would reset its count
        # and trip the duplicate guard.  The clone keeps the tag, so
        # whichever copy's response arrives first completes the request.
        clone = Packet(
            ptype=packet.ptype,
            src_gpu=packet.src_gpu,
            dst_gpu=packet.dst_gpu,
            addr=packet.addr,
            payload_bytes=packet.payload_bytes,
            bytes_needed=packet.bytes_needed,
            sector_offset=packet.sector_offset,
            trim_allowed=packet.trim_allowed,
            sector_fetch=packet.sector_fetch,
            filled_sector_mask=packet.filled_sector_mask,
            tag=tag,
        )
        clone.pid = self._next_pid
        self._next_pid += self._pid_step
        clone.inject_cycle = self.now
        self._fault_stats.rdma_retries += 1
        self.requests_sent += 1
        if self._trace_on:
            self._tracer.packet_event(self.now, "inject", clone, lane=self.name)
        self._inject(clone)
        backoff = min(cfg.rdma_timeout << (attempt + 1), cfg.rdma_backoff_cap)
        self.schedule(backoff, self._backstop, tag, attempt + 1)

    # -- responder / completion side --------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        """Sink of the GPU's downlink: serve a request, or complete one."""
        ptype = packet.ptype
        if ptype is _READ_REQ:
            self._serve_read(packet)
        elif ptype is _WRITE_REQ:
            self._serve_write(packet)
        elif ptype is _PT_REQ:
            self._serve_pt_read(packet)
        elif ptype is _INV_REQ:
            self._serve_invalidate(packet)
        else:
            self._complete_response(packet)

    def _serve_read(self, packet: Packet) -> None:
        self.requests_served += 1
        if self._on_read_served is not None:
            self._on_read_served(packet.addr, packet.src_gpu)
        self._l2_request(
            packet.addr, CACHE_LINE_BYTES, False, partial(self._respond_read, packet)
        )

    def _respond_read(self, request: Packet) -> None:
        if request.sector_fetch and request.filled_sector_mask is not None:
            n_sectors = bin(request.filled_sector_mask).count("1")
            payload = max(self.sector_bytes, n_sectors * self.sector_bytes)
            filled_mask = request.filled_sector_mask
        else:
            payload = CACHE_LINE_BYTES
            filled_mask = None  # full line (may still be trimmed in flight)
        response = Packet(
            ptype=_READ_RSP,
            src_gpu=self.gpu_id,
            dst_gpu=request.src_gpu,
            addr=request.addr,
            payload_bytes=payload,
            bytes_needed=request.bytes_needed,
            sector_offset=request.sector_offset,
            trim_allowed=request.trim_allowed,
            sector_fetch=request.sector_fetch,
            filled_sector_mask=filled_mask,
            tag=request.tag,
        )
        self._send_response(response)

    def _serve_write(self, packet: Packet) -> None:
        self.requests_served += 1
        if self._on_write_served is not None:
            self._on_write_served(packet.addr, packet.src_gpu)
        self._l2_request(
            packet.addr, CACHE_LINE_BYTES, True, partial(self._respond_ack, packet)
        )

    def _serve_invalidate(self, packet: Packet) -> None:
        """Invalidate local L1 copies of the line and acknowledge."""
        self.requests_served += 1
        self.stats.coherence_inv_received += 1
        if self._on_invalidate is not None:
            self._on_invalidate(packet.addr)
        response = Packet(
            ptype=_INV_RSP,
            src_gpu=self.gpu_id,
            dst_gpu=packet.src_gpu,
            addr=packet.addr,
            tag=packet.tag,
        )
        self._send_response(response)

    def _respond_ack(self, request: Packet) -> None:
        response = Packet(
            ptype=_WRITE_RSP,
            src_gpu=self.gpu_id,
            dst_gpu=request.src_gpu,
            addr=request.addr,
            tag=request.tag,
        )
        self._send_response(response)

    def _serve_pt_read(self, packet: Packet) -> None:
        self.requests_served += 1
        self._l2_request(
            packet.addr, 8, False, partial(self._respond_pt, packet)
        )

    def _respond_pt(self, request: Packet) -> None:
        response = Packet(
            ptype=_PT_RSP,
            src_gpu=self.gpu_id,
            dst_gpu=request.src_gpu,
            addr=request.addr,
            tag=request.tag,
        )
        self._send_response(response)

    def _send_response(self, response: Packet) -> None:
        response.pid = self._next_pid
        self._next_pid += self._pid_step
        response.inject_cycle = self.now
        if self._trace_on:
            self._tracer.packet_event(self.now, "inject", response, lane=self.name)
        self._inject(response)

    def _complete_response(self, packet: Packet) -> None:
        entry = self._outstanding.pop(packet.tag, None)
        if entry is None:
            if self._faults is None:
                raise RuntimeError(
                    f"{self.name}: response {packet.pid} ({packet.ptype.name} "
                    f"from GPU {packet.src_gpu}) carries tag {packet.tag}, "
                    "which no outstanding request holds"
                )
            # with the retry backstop active the same logical request may
            # answer more than once (original + clone both survive);
            # only the first response completes it
            self._fault_stats.rdma_duplicate_responses += 1
            return
        _request, send_cycle, crosses_cluster, on_complete = entry
        self.responses_received += 1
        ptype = packet.ptype
        if ptype is _READ_RSP:
            latency = self.now - send_cycle
            if crosses_cluster:
                self.stats.remote_read_latency_inter.record(latency)
                # per-phase breakdown for phase-labelled (collective)
                # workloads; no-op when no phase is live
                self.stats.record_phase_read_latency(latency)
            else:
                self.stats.remote_read_latency_intra.record(latency)
            on_complete(packet)
        elif ptype is _PT_RSP:
            on_complete()
        elif ptype is _WRITE_RSP:
            self.outstanding_writes -= 1
            if not self.outstanding_writes and not self.outstanding_invalidations:
                self.last_drain_cycle = self.now
                self.last_drain_skey = self.engine.cur_skey
        else:  # INV_RSP
            self.outstanding_invalidations -= 1
            if not self.outstanding_writes and not self.outstanding_invalidations:
                self.last_drain_cycle = self.now
                self.last_drain_skey = self.engine.cur_skey
