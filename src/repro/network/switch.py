"""Cluster switch: routing, pipeline latency, and flit reassembly.

Each GPU cluster has one switch (Figure 2).  The switch routes packets
between its local GPUs and, via egress controllers (NetCrafter or a
pass-through baseline), toward remote clusters.  Every packet or
reassembled flit stream pays the 30-cycle data-processing pipeline of
Table 2 before being routed; throughput is one flit per cycle per port,
which the attached links enforce.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

from repro.faults.process import CorruptedTransmission
from repro.obs.tracer import Traced
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.network.flit import DuplicateFlitError, Flit
from repro.network.link import PacketLink
from repro.network.packet import Packet


class RoutingError(RuntimeError):
    """A switch had no egress toward a packet's destination cluster.

    Raised instead of the old silent fallback (assume a direct link and
    die in an opaque ``KeyError``), so a topology with a missing or
    wrong route table entry fails loudly, naming the switch, the
    destination, and what routes/ports it actually has.
    """


class ReassemblyBuffer:
    """Reassembles packets from flits arriving on an inter-cluster link.

    Used where the link delivers every flit: faulted links, traced runs
    and links into a plain flit sink.  A fault-free, untraced link into
    a switch completes packets itself (see
    :class:`~repro.network.link.FlitLink`) and never reaches this buffer.

    Stitched flits are un-stitched first: every absorbed flit counts
    toward its own packet, matched by packet ID exactly as the paper's
    receiving Stitch Engine does with the ID/Size metadata.

    Per packet, a bitmask records which flit indices have arrived; the
    packet completes when every index is present, and a repeated or
    out-of-range index raises :class:`DuplicateFlitError` immediately.
    """

    def __init__(self, flit_size: int, on_packet: Callable[[Packet], None]) -> None:
        self.flit_size = flit_size
        self.on_packet = on_packet
        #: pid -> bitmask of flit indices received so far
        self._received: Dict[int, int] = {}
        self.flits_unstitched = 0
        self.packets_reassembled = 0

    def receive(self, flit: Flit) -> None:
        """Account one arriving wire flit (plus anything stitched in it)."""
        self._account(flit)
        segments = flit.segments
        if segments:
            self.flits_unstitched += len(segments)
            for segment in segments:
                self._account(segment.flit)

    def _account(self, flit: Flit) -> None:
        packet = flit.packet
        expected = packet.flit_count(self.flit_size)
        index = flit.index
        if index >= expected:
            raise DuplicateFlitError(
                f"flit {flit.fid} has index {index} but packet "
                f"{packet.pid} only occupies {expected} flit(s)"
            )
        bit = 1 << index
        mask = self._received.get(packet.pid, 0)
        if mask & bit:
            raise DuplicateFlitError(
                f"flit index {index} of packet {packet.pid} delivered "
                f"twice (flit {flit.fid})"
            )
        mask |= bit
        if mask != (1 << expected) - 1:
            self._received[packet.pid] = mask
            return
        self._received.pop(packet.pid, None)
        self.packets_reassembled += 1
        self.on_packet(packet)

    def pending_packets(self) -> int:
        """Packets with some but not all flits received."""
        return len(self._received)


class ClusterSwitch(Traced, Component):
    """One cluster's crossbar switch.

    Wiring (done by the topology builder):

    * ``attach_gpu_link`` — the switch->GPU downlink for each local GPU;
    * ``attach_egress`` — an egress controller per remote cluster, which
      owns the inter-cluster :class:`~repro.network.link.FlitLink`;
    * incoming traffic enters via :meth:`receive_packet_from_gpu` (from a
      GPU's uplink) and :meth:`receive_flit_from_network` (from a remote
      switch's egress link).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        cluster_id: int,
        cluster_of_gpu: Dict[int, int],
        pipeline_latency: int = 30,
        flit_size: int = 16,
    ) -> None:
        super().__init__(engine, name)
        self.cluster_id = cluster_id
        self.cluster_of_gpu = cluster_of_gpu
        self.pipeline_latency = pipeline_latency
        self.flit_size = flit_size
        self._gpu_links: Dict[int, PacketLink] = {}
        self._egress: Dict[int, "EgressControllerProtocol"] = {}
        #: dst cluster -> neighbouring node whose egress link to use;
        #: identity by default (direct mesh), installed from the
        #: topology spec's route table for multi-hop fabrics
        self._next_hop: Dict[int, int] = {}
        self.reassembly = ReassemblyBuffer(flit_size, self._on_packet_reassembled)
        self.packets_routed = 0

    #: fault layer: set by :meth:`attach_crc`, enabling the modeled CRC
    #: check at network ingress (class-attribute default keeps the
    #: fault-free path to one falsy test)
    _crc_stats = None

    # -- wiring -----------------------------------------------------------

    def attach_crc(self, fault_stats) -> None:
        """Enable per-flit CRC checking at this switch's network ingress."""
        self._crc_stats = fault_stats

    def attach_gpu_link(self, gpu_id: int, link: PacketLink) -> None:
        self._gpu_links[gpu_id] = link

    def attach_egress(self, dst_cluster: int, controller: "EgressControllerProtocol") -> None:
        self._egress[dst_cluster] = controller

    def set_route(self, dst_cluster: int, via_cluster: int) -> None:
        """Route traffic for ``dst_cluster`` over the ``via_cluster`` link."""
        self._next_hop[dst_cluster] = via_cluster

    # -- ingress ----------------------------------------------------------

    def receive_packet_from_gpu(self, packet: Packet) -> None:
        """A local GPU injected a packet; route it after the pipeline."""
        self.schedule(self.pipeline_latency, self._route, packet)

    def receive_flit_from_network(self, flit: Flit, done: int = 0) -> None:
        """A wire flit arrived from a remote cluster.

        ``done`` is the sending link's completion mask (see
        :class:`~repro.network.link.FlitLink`): bit 0 marks the flit's
        own packet complete, bit ``i + 1`` the packet of stitched
        segment ``i``, and each marked packet is routed after the
        pipeline, in carried order.  ``done == 0`` means the link
        delivers every flit (a faulted or traced run): the flit passes
        the CRC check and is un-stitched and reassembled here.
        """
        if done:
            if done == 1:  # the common case: the flit's own packet alone
                self.schedule(self.pipeline_latency, self._route, flit.packet)
                return
            for carried in flit.all_carried_flits():
                if done & 1:
                    self.schedule(self.pipeline_latency, self._route, carried.packet)
                done >>= 1
            return
        if self._crc_stats is not None:
            if type(flit) is CorruptedTransmission:
                # CRC failure: discard the whole wire flit (stitched
                # children included) — the sender's NACK path already
                # scheduled the retransmission, so nothing here may
                # reach reassembly (its duplicate guard would trip on
                # the retransmitted copy otherwise)
                self._crc_stats.crc_fail += 1
                if self._trace_on:
                    self._tracer.flit_event(
                        self.now, "corrupt", flit.flit, lane=self.name
                    )
                return
            self._crc_stats.crc_ok += 1
            if self._trace_on:
                self._tracer.flit_event(self.now, "crc_ok", flit, lane=self.name)
        if self._trace_on:
            # one deliver per carried flit: the wire flit itself plus any
            # stitched children recovered by un-stitching here
            for carried in flit.all_carried_flits():
                self._tracer.flit_event(
                    self.now,
                    "deliver",
                    carried,
                    lane=self.name,
                    via=flit.fid,
                )
        self.reassembly.receive(flit)

    def _on_packet_reassembled(self, packet: Packet) -> None:
        self.schedule(self.pipeline_latency, self._route, packet)

    # -- routing ----------------------------------------------------------

    def _route(self, packet: Packet) -> None:
        dst_gpu = packet.dst_gpu
        dst_cluster = self.cluster_of_gpu[dst_gpu]
        self.packets_routed += 1
        if dst_cluster == self.cluster_id:
            link = self._gpu_links[dst_gpu]
            if not link.send(packet):
                self.packets_routed -= 1  # retry will re-count
                link.notify_on_space(partial(self._route, packet))
            return
        via = self._next_hop.get(dst_cluster, dst_cluster)
        egress = self._egress.get(via)
        if egress is None:
            raise RoutingError(
                f"{self.name} (node {self.cluster_id}) cannot route "
                f"packet {packet.pid} toward cluster {dst_cluster}: "
                f"next hop {via} has no egress port "
                f"(egress ports: {sorted(self._egress)}; "
                f"installed routes: {dict(sorted(self._next_hop.items()))})"
            )
        egress.accept_packet(packet)


class EgressControllerProtocol:
    """Duck-typed interface implemented by controllers in ``repro.core``."""

    def accept_packet(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError
