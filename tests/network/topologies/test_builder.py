"""Builder-level tests for the topology zoo, plus two bug regressions.

1. Delivery-rank aliasing: ranks are ``src * n_nodes + dst`` and used to
   share the fixed 4096-wide per-sequence span — so past 64 switch
   nodes two links' same-cycle delivery keys could collide across a
   sequence step, silently corrupting deterministic delivery order.
   The span now widens with the fabric (``delivery_span_for``).
2. ``ClusterSwitch._route`` used to fall back to "assume a direct link"
   and die in an opaque ``KeyError`` when the route table missed; it
   now raises :class:`~repro.network.switch.RoutingError` naming the
   switch, destination, and installed state.
"""

from functools import partial

import pytest

from repro.config import SystemConfig
from repro.network.flit import segment_packet
from repro.network.link import DELIVERY_RANK_SPAN
from repro.network.packet import Packet, PacketType
from repro.network.switch import ClusterSwitch, RoutingError
from repro.network.topology import (
    build_topology,
    delivery_span_for,
    inter_pairs,
    topology_spec,
)
from repro.sim.engine import Engine

from tests.network.per_flit import staged

SHIPPED = ("mesh", "ring", "star", "fat_tree", "torus3d")


class _FakeGpu:
    def __init__(self):
        self.uplink = None
        self.received = []
        # the downlink delivers into the GPU's RDMA engine; the fake is both
        self.rdma = self

    def attach_uplink(self, link):
        self.uplink = link

    def receive_packet(self, packet):
        self.received.append(packet)


class _FakeController:
    def __init__(self, name, link, src, dst):
        self.name = name
        self.link = link
        self.src = src
        self.dst = dst

    def accept_packet(self, packet):  # pragma: no cover - wiring only
        pass


def _config(topology, n_clusters, **overrides):
    return SystemConfig.default().with_overrides(
        inter_topology=topology,
        n_clusters=n_clusters,
        gpus_per_cluster=1,
        **overrides,
    )


def _build(config, **kwargs):
    engine = Engine()
    gpus = {g: _FakeGpu() for g in range(config.n_gpus)}
    return engine, build_topology(engine, config, gpus, _FakeController, **kwargs)


# -- generic builder invariants ----------------------------------------------


@pytest.mark.parametrize("name", SHIPPED)
def test_builder_wires_every_edge_and_route(name):
    config = _config(name, 4)
    spec = topology_spec(config)
    _engine, topo = _build(config)
    assert len(topo.switches) == spec.n_nodes(config)
    pairs = [(c.src, c.dst) for c in topo.controllers]
    assert pairs == inter_pairs(config)
    assert len(topo.inter_links) == len(pairs)
    for (node, dst), via in spec.routes(config).items():
        assert topo.switches[node]._next_hop[dst] == via


def test_virtual_switches_own_no_gpus():
    config = _config("star", 4)
    _engine, topo = _build(config)
    hub = topo.switches[4]
    assert hub._gpu_links == {}
    assert topo.gpu_uplinks.keys() == set(range(4))
    # the hub still has an egress port per leaf
    assert sorted(hub._egress) == [0, 1, 2, 3]


def test_bandwidth_classes_resolve_per_link():
    config = _config(
        "star", 4, link_bw_overrides={"up": 8.0, "down": 64.0}
    )
    _engine, topo = _build(config)
    for link, (src, dst) in zip(topo.inter_links, inter_pairs(config)):
        expected = 8.0 if dst == 4 else 64.0  # uplinks point at the hub
        assert link.bytes_per_cycle == expected


def test_unlisted_classes_fall_back_to_inter_cluster_bw():
    config = _config(
        "torus3d", 8, inter_cluster_bw=32.0, link_bw_overrides={"z": 4.0}
    )
    spec = topology_spec(config)
    _engine, topo = _build(config)
    for link, edge in zip(topo.inter_links, spec.edges(config)):
        assert link.bytes_per_cycle == (4.0 if edge.bw_class == "z" else 32.0)


# -- regression: delivery-rank aliasing beyond 64 nodes ----------------------


def test_delivery_span_for_keeps_historical_span_up_to_64_nodes():
    for n_nodes in (1, 2, 8, 64):
        assert delivery_span_for(n_nodes) == DELIVERY_RANK_SPAN
    assert delivery_span_for(65) == 8192
    assert delivery_span_for(90) == 8192  # 90^2 = 8100 still fits
    assert delivery_span_for(91) == 16384
    assert delivery_span_for(128) == 16384


def test_ranks_never_alias_across_sequence_steps_at_65_clusters():
    """Regression: at 65 clusters the ring's wraparound links hold ranks
    64 (0->64) and 4160 (64->0), exactly 4096 apart — under the old
    fixed span, link 64->0's first delivery keyed identically to link
    0->64's *second*, corrupting same-cycle delivery order."""
    config = _config("ring", 65)
    engine, topo = _build(config)
    span = delivery_span_for(65)
    by_name = {link.name: link for link in topo.inter_links}
    wrap_fwd = by_name["switch64->switch0"]
    wrap_back = by_name["switch0->switch64"]
    assert wrap_fwd.delivery_rank - wrap_back.delivery_rank == DELIVERY_RANK_SPAN
    for link in topo.inter_links:
        assert link.delivery_span == span
        assert link.delivery_rank < span

    # seq must dominate rank: every link's first delivery orders before
    # any link's second (the old span violated this for the pair above)
    keys = {link.name: [] for link in topo.inter_links}
    for link in topo.inter_links:
        link.sink = partial(_record_skey, engine, keys[link.name])
    for _ in range(2):
        for link in topo.inter_links:
            (flit,) = staged(
                segment_packet(Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1), 16)
            )
            link.send(flit)
        engine.run()
    first = [seq_keys[0] for seq_keys in keys.values()]
    second = [seq_keys[1] for seq_keys in keys.values()]
    assert len(set(first + second)) == 2 * len(topo.inter_links)
    assert max(first) < min(second)


def _record_skey(engine, keys, flit, done):
    keys.append(engine.cur_skey)


def test_builder_refuses_rank_at_or_beyond_span(monkeypatch):
    """The rank < span invariant is asserted at build time, not hoped."""
    import repro.network.topology as topology_mod

    monkeypatch.setattr(
        topology_mod, "delivery_span_for", lambda n_nodes: 64
    )
    with pytest.raises(ValueError, match="delivery rank"):
        _build(_config("mesh", 9))  # rank up to 80 >= forced span 64


# -- regression: silent routing fallback -------------------------------------


def _lone_switch():
    engine = Engine()
    return ClusterSwitch(
        engine, "switch0", cluster_id=0, cluster_of_gpu={0: 0, 1: 1, 2: 2}
    )


def test_missing_egress_raises_routing_error_naming_the_gap():
    switch = _lone_switch()
    packet = Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1, addr=0x40)
    with pytest.raises(RoutingError, match=r"switch0.*toward cluster 1"):
        switch._route(packet)


def test_routing_error_reports_installed_routes_and_ports():
    switch = _lone_switch()
    switch.set_route(2, 5)  # route installed, but no egress port for 5
    packet = Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=2, addr=0x40)
    with pytest.raises(RoutingError, match=r"next hop 5") as excinfo:
        switch._route(packet)
    message = str(excinfo.value)
    assert "{2: 5}" in message  # the installed route table
    assert "egress ports: []" in message


def test_routing_error_is_a_runtime_error():
    # callers that caught RuntimeError for the old opaque failure keep
    # working
    assert issubclass(RoutingError, RuntimeError)
