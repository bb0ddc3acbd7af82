"""Interconnect substrate: packets, flits, links, switches, topology.

Models the paper's Akita-style network: a simplified PCIe-like protocol
with six packet types (Table 1), fixed-size flits, bandwidth-serialized
links, and cluster switches with a 30-cycle processing pipeline and
bounded I/O buffers.
"""

from repro.network.packet import (
    Packet,
    PacketType,
    HEADER_BYTES,
    PAYLOAD_BYTES,
    packet_census_row,
)
from repro.network.flit import Flit, StitchKind, StitchSegment, segment_packet
from repro.network.link import FlitLink, PacketLink
from repro.network.switch import ClusterSwitch, RoutingError
from repro.network.topologies import (
    TopologySpec,
    get_topology,
    register_topology,
    topology_names,
)
from repro.network.topology import Topology, build_topology

__all__ = [
    "RoutingError",
    "TopologySpec",
    "get_topology",
    "register_topology",
    "topology_names",
    "Packet",
    "PacketType",
    "HEADER_BYTES",
    "PAYLOAD_BYTES",
    "packet_census_row",
    "Flit",
    "StitchKind",
    "StitchSegment",
    "segment_packet",
    "FlitLink",
    "PacketLink",
    "ClusterSwitch",
    "Topology",
    "build_topology",
]
