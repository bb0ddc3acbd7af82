"""Topology builder: clusters, switches, links, egress controllers.

Builds the Figure 2 node generalized over the pluggable topology zoo
(:mod:`repro.network.topologies`): each GPU cluster has one switch; GPUs
connect to their cluster switch over intra-cluster bandwidth links; and
the cluster switches are wired by the registered
:class:`~repro.network.topologies.TopologySpec` named by
``config.inter_topology`` — its directed edges become inter-cluster
links (each guarded by an egress controller supplied by a factory so
this module stays independent of :mod:`repro.core`), its per-edge
bandwidth classes resolve through ``config.bandwidth_of``, and its
shortest-path routing table is installed on every built switch.

Topologies with virtual switch nodes (a star hub, fat-tree spines) get
extra :class:`~repro.network.switch.ClusterSwitch` instances with node
ids ``>= n_clusters`` and no attached GPUs; packets store-and-forward
through them paying the switch pipeline latency and re-entering that
hop's egress controller, exactly as ring forwarding always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.config import SystemConfig
from repro.network.link import DELIVERY_RANK_SPAN, FlitLink, PacketLink
from repro.network.switch import ClusterSwitch
from repro.network.topologies import TopologySpec, get_topology
from repro.sim.engine import Engine

#: ControllerFactory(name, link, src_cluster, dst_cluster) -> controller
ControllerFactory = Callable[[str, FlitLink, int, int], object]

#: BoundaryLinkFactory(name, bytes_per_cycle, latency, src, dst) -> FlitLink
#: whose delivery captures flits for cross-shard mailbox transport
BoundaryLinkFactory = Callable[[str, float, int, int, int], FlitLink]


def topology_spec(config: SystemConfig) -> TopologySpec:
    """The registered spec for ``config.inter_topology``."""
    return get_topology(config.inter_topology)


def inter_pairs(config: SystemConfig) -> List[Tuple[int, int]]:
    """Ordered (src, dst) node pairs, in canonical wiring order.

    This order defines ``Topology.inter_links`` (and the matching
    controller list), and is the contract sharded result merging relies
    on: every registered topology emits its edges with ``src``
    ascending, so a shard owning a contiguous node range contributes a
    contiguous slice, and concatenating shard slices in shard order
    reproduces the global order.  (Virtual switch nodes carry ids above
    every real cluster and belong to the last shard, so they extend the
    last slice without breaking contiguity.)
    """
    return [(e.src, e.dst) for e in topology_spec(config).edges(config)]


def delivery_span_for(n_nodes: int) -> int:
    """Per-sequence delivery-rank span for an ``n_nodes``-switch fabric.

    Ranks are ``src * n_nodes + dst < n_nodes**2``, so the span is the
    smallest power of two >= ``n_nodes**2`` that is at least the
    historical :data:`~repro.network.link.DELIVERY_RANK_SPAN` — for any
    fabric of up to 64 switches the span (and therefore every schedule
    key) is unchanged, and beyond that the span grows instead of
    silently aliasing same-cycle delivery order across links.
    """
    span = DELIVERY_RANK_SPAN
    needed = n_nodes * n_nodes
    while span < needed:
        span *= 2
    return span


@dataclass
class Topology:
    """All network components of one built system."""

    switches: Dict[int, ClusterSwitch] = field(default_factory=dict)
    gpu_uplinks: Dict[int, PacketLink] = field(default_factory=dict)
    gpu_downlinks: Dict[int, PacketLink] = field(default_factory=dict)
    inter_links: List[FlitLink] = field(default_factory=list)
    controllers: List[object] = field(default_factory=list)

    def intra_links(self) -> List[PacketLink]:
        return list(self.gpu_uplinks.values()) + list(self.gpu_downlinks.values())


def build_topology(
    engine: Engine,
    config: SystemConfig,
    gpus: Dict[int, object],
    controller_factory: ControllerFactory,
    owned_clusters: Optional[Set[int]] = None,
    boundary_link_factory: Optional[BoundaryLinkFactory] = None,
) -> Topology:
    """Wire GPUs, switches, links and egress controllers together.

    ``gpus`` maps gpu_id -> an object exposing ``attach_uplink`` and an
    ``rdma`` engine with ``receive_packet`` (the :class:`repro.gpu.gpu.Gpu`
    assembly); each downlink delivers straight into that engine.

    With ``owned_clusters`` set, only that subset of the node is built
    (one cluster shard): switches and intra links for owned nodes, and
    the *outgoing* inter links of owned source nodes.  Links whose
    destination lives in another shard are created through
    ``boundary_link_factory`` so serialization/pacing behave identically
    while delivery goes to a cross-shard outbox instead of a local sink.
    """
    if owned_clusters is not None and boundary_link_factory is None:
        raise ValueError("partial topologies require a boundary_link_factory")
    spec = topology_spec(config)
    n_nodes = spec.n_nodes(config)
    topo = Topology()
    cluster_of_gpu = {g: config.cluster_of(g) for g in range(config.n_gpus)}

    nodes = (
        range(n_nodes) if owned_clusters is None else sorted(owned_clusters)
    )
    for node in nodes:
        topo.switches[node] = ClusterSwitch(
            engine,
            f"switch{node}",
            cluster_id=node,
            cluster_of_gpu=cluster_of_gpu,
            pipeline_latency=config.switch_latency,
        )

    for gpu_id, gpu in gpus.items():
        cluster = cluster_of_gpu[gpu_id]
        switch = topo.switches[cluster]
        uplink = PacketLink(
            engine,
            f"gpu{gpu_id}->switch{cluster}",
            bytes_per_cycle=config.intra_cluster_bw,
            latency=config.link_latency,
            flit_size=config.flit_size,
            sink=switch.receive_packet_from_gpu,
            buffer_entries=config.switch_buffer_entries,
        )
        downlink = PacketLink(
            engine,
            f"switch{cluster}->gpu{gpu_id}",
            bytes_per_cycle=config.intra_cluster_bw,
            latency=config.link_latency,
            flit_size=config.flit_size,
            sink=gpu.rdma.receive_packet,
            buffer_entries=config.switch_buffer_entries,
        )
        gpu.attach_uplink(uplink)
        switch.attach_gpu_link(gpu_id, downlink)
        topo.gpu_uplinks[gpu_id] = uplink
        topo.gpu_downlinks[gpu_id] = downlink

    span = delivery_span_for(n_nodes)
    for edge in spec.edges(config):
        if owned_clusters is not None and edge.src not in owned_clusters:
            continue
        _add_inter_link(
            engine,
            config,
            topo,
            controller_factory,
            edge,
            n_nodes,
            span,
            owned_clusters,
            boundary_link_factory,
        )

    for (node, dst), via in spec.routes(config).items():
        if node in topo.switches:
            topo.switches[node].set_route(dst, via)

    return topo


def _add_inter_link(
    engine,
    config,
    topo,
    controller_factory,
    edge,
    n_nodes: int,
    span: int,
    owned_clusters: Optional[Set[int]] = None,
    boundary_link_factory: Optional[BoundaryLinkFactory] = None,
) -> None:
    src, dst = edge.src, edge.dst
    name = f"switch{src}->switch{dst}"
    latency = config.effective_inter_link_latency
    bandwidth = config.bandwidth_of(edge.bw_class)
    if owned_clusters is not None and dst not in owned_clusters:
        link = boundary_link_factory(name, bandwidth, latency, src, dst)
    else:
        link = FlitLink(
            engine,
            name,
            bytes_per_cycle=bandwidth,
            latency=latency,
            sink=topo.switches[dst].receive_flit_from_network,
        )
    # deterministic same-cycle delivery order across links: the directed
    # pair's index, identical whether the link is local or a shard
    # boundary.  The span scales with the node count so ranks can never
    # alias across a sequence step (rank < span is asserted, not hoped).
    rank = src * n_nodes + dst
    if rank >= span:
        raise ValueError(
            f"delivery rank {rank} for link {name} exceeds span {span}"
        )
    link.delivery_rank = rank
    link.delivery_span = span
    controller = controller_factory(f"egress{src}->{dst}", link, src, dst)
    # flit IDs minted per link, distinct across links by the same rank
    controller.fid_rank = rank
    controller.fid_span = n_nodes * n_nodes
    topo.switches[src].attach_egress(dst, controller)
    topo.inter_links.append(link)
    topo.controllers.append(controller)
