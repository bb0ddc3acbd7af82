"""Cluster switch: routing and pipeline latency.

Each GPU cluster has one switch (Figure 2).  The switch routes packets
between its local GPUs and, via egress controllers (NetCrafter or a
pass-through baseline), toward remote clusters.  Every packet pays the
30-cycle data-processing pipeline of Table 2 before being routed;
throughput is one flit per cycle per port, which the attached links
enforce.  Packets from remote clusters arrive whole: the sending
:class:`~repro.network.link.FlitLink` completes them (and decides their
CRC check under fault injection), so the switch routes each completed
packet a wire flit names.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.network.flit import Flit
from repro.network.link import PacketLink
from repro.network.packet import Packet


class RoutingError(RuntimeError):
    """A switch had no egress toward a packet's destination cluster.

    Raised instead of the old silent fallback (assume a direct link and
    die in an opaque ``KeyError``), so a topology with a missing or
    wrong route table entry fails loudly, naming the switch, the
    destination, and what routes/ports it actually has.
    """


class ClusterSwitch(Component):
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
    ) -> None:
        super().__init__(engine, name)
        self.cluster_id = cluster_id
        self.cluster_of_gpu = cluster_of_gpu
        self.pipeline_latency = pipeline_latency
        self._gpu_links: Dict[int, PacketLink] = {}
        self._egress: Dict[int, "EgressControllerProtocol"] = {}
        #: dst cluster -> neighbouring node whose egress link to use;
        #: identity by default (direct mesh), installed from the
        #: topology spec's route table for multi-hop fabrics
        self._next_hop: Dict[int, int] = {}
        self.packets_routed = 0

    # -- wiring -----------------------------------------------------------

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

    def receive_flit_from_network(self, flit: Flit, done: int) -> None:
        """A wire flit that completes packets arrived from a remote cluster.

        ``done`` is the sending link's completion mask (see
        :class:`~repro.network.link.FlitLink`): bit 0 marks the flit's
        own packet complete, bit ``i + 1`` the packet of stitched
        segment ``i``, and each marked packet is routed after the
        pipeline, in carried order.
        """
        if done == 1:  # the common case: the flit's own packet alone
            self.schedule(self.pipeline_latency, self._route, flit.packet)
            return
        for carried in flit.all_carried_flits():
            if done & 1:
                self.schedule(self.pipeline_latency, self._route, carried.packet)
            done >>= 1

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
