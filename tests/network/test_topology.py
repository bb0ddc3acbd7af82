"""Tests for the topology builder."""

from repro.config import SystemConfig
from repro.network.topology import build_topology
from repro.sim.engine import Engine


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


def _build(config):
    eng = Engine()
    gpus = {g: _FakeGpu() for g in range(config.n_gpus)}
    topo = build_topology(eng, config, gpus, _FakeController)
    return eng, gpus, topo


def test_default_two_by_two():
    config = SystemConfig.default()
    _eng, gpus, topo = _build(config)
    assert len(topo.switches) == 2
    assert len(topo.gpu_uplinks) == 4
    assert len(topo.gpu_downlinks) == 4
    assert len(topo.inter_links) == 2  # one per direction
    assert len(topo.controllers) == 2
    assert all(gpu.uplink is not None for gpu in gpus.values())


def test_controllers_cover_all_cluster_pairs():
    config = SystemConfig.default().with_overrides(n_clusters=3)
    _eng, _gpus, topo = _build(config)
    pairs = {(c.src, c.dst) for c in topo.controllers}
    expected = {(a, b) for a in range(3) for b in range(3) if a != b}
    assert pairs == expected
    assert len(topo.inter_links) == 6


def test_link_bandwidths_match_config():
    config = SystemConfig.default().with_overrides(
        intra_cluster_bw=256.0, inter_cluster_bw=32.0
    )
    _eng, _gpus, topo = _build(config)
    for link in topo.inter_links:
        assert link.bytes_per_cycle == 32.0
    for link in topo.intra_links():
        assert link.bytes_per_cycle == 256.0


def test_intra_links_counts_up_and_down():
    config = SystemConfig.default()
    _eng, _gpus, topo = _build(config)
    assert len(topo.intra_links()) == 8  # 4 uplinks + 4 downlinks


def test_switch_flit_size_propagated():
    # the switch keeps no flit size of its own (packets arrive whole);
    # its GPU-facing ports time packets at the configured flit size
    config = SystemConfig.default().with_overrides(flit_size=8)
    _eng, _gpus, topo = _build(config)
    for switch in topo.switches.values():
        assert switch._gpu_links
        assert all(link.flit_size == 8 for link in switch._gpu_links.values())
