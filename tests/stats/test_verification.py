"""Tests for the analytic traffic-conservation verifier."""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.network.packet import PacketType
from repro.stats.verification import (
    expected_inter_packets,
    observed_inter_packets,
    verify_traffic,
)
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

CONFIGS = [
    ("baseline", None, None),
    ("full_nc", None, NetCrafterConfig.full()),
    ("hw_coherence", SystemConfig.default().with_overrides(coherence="hardware"),
     NetCrafterConfig.full()),
    ("sector", SystemConfig.sector_cache_baseline(), None),
    ("flit8", SystemConfig.default().with_overrides(flit_size=8),
     NetCrafterConfig.stitching_only()),
]


#: configs checked at a larger scale than ``Scale.tiny()``: tiny ``gups``
#: meets no remote sharer on a write, so it sends no invalidation
SCALES = {"hw_coherence": Scale.small()}


def _run(workload="gups", system=None, netcrafter=None, seed=0, scale=None):
    system_cfg = system or SystemConfig.default()
    trace = get_workload(workload).build(
        n_gpus=system_cfg.n_gpus, scale=scale or Scale.tiny(), seed=seed
    )
    node = MultiGpuSystem(config=system_cfg, netcrafter=netcrafter, seed=seed)
    node.load(trace)
    return node, node.run()


@pytest.mark.parametrize("label,system,netcrafter", CONFIGS)
def test_traffic_conserved(label, system, netcrafter):
    node, result = _run(system=system, netcrafter=netcrafter, scale=SCALES.get(label))
    assert verify_traffic(node, result) == []
    if label == "hw_coherence":
        # the check covered invalidation traffic, not just reads/writes
        assert observed_inter_packets(node)[PacketType.INV_REQ] > 0


@pytest.mark.parametrize("workload", ["spmv", "mvt", "vgg16"])
def test_traffic_conserved_across_workloads(workload):
    node, result = _run(workload=workload, netcrafter=NetCrafterConfig.full())
    assert verify_traffic(node, result) == []


def test_expected_counts_are_symmetric():
    node, result = _run()
    expected = expected_inter_packets(result.stats)
    assert expected[PacketType.READ_REQ] == expected[PacketType.READ_RSP]
    assert expected[PacketType.WRITE_REQ] == expected[PacketType.WRITE_RSP]


def test_observed_counts_include_all_types():
    node, result = _run()
    observed = observed_inter_packets(node)
    assert set(observed) == set(PacketType)
    assert observed[PacketType.READ_REQ] > 0


def test_verifier_detects_tampering():
    node, result = _run()
    result.stats.remote_reads_inter += 1  # simulate a lost read
    problems = verify_traffic(node, result)
    assert problems and "read_req" in problems[0]


def test_ring_topology_rejected():
    ring = SystemConfig.default().with_overrides(
        n_clusters=4, gpus_per_cluster=1, inter_topology="ring"
    )
    node, result = _run(system=ring)
    with pytest.raises(ValueError, match="mesh"):
        verify_traffic(node, result)
