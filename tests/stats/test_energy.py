"""Tests for the energy model."""

import pytest

from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.stats.energy import EnergyBreakdown, EnergyModel, estimate_energy
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload


def _run(netcrafter=None, workload="gups", seed=0):
    trace = get_workload(workload).build(n_gpus=4, scale=Scale.tiny(), seed=seed)
    system = MultiGpuSystem(netcrafter=netcrafter, seed=seed)
    system.load(trace)
    return system, system.run()


def test_breakdown_components_present():
    _system, result = _run()
    energy = result.energy
    assert isinstance(energy, EnergyBreakdown)
    expected = {
        "inter_links", "intra_links", "switches", "cluster_queues",
        "l1_caches", "l2_caches", "dram",
    }
    assert set(energy.components) == expected
    assert energy.total_pj > 0
    assert energy.network_pj <= energy.total_pj


def test_network_energy_scales_with_traffic():
    _sys_a, local = _run(workload="bs")  # almost no inter-cluster traffic
    _sys_b, remote = _run(workload="gups")
    assert remote.energy.components["inter_links"] > local.energy.components["inter_links"]


def test_netcrafter_cuts_network_energy():
    _a, base = _run()
    _b, crafted = _run(netcrafter=NetCrafterConfig.full())
    assert crafted.energy.components["inter_links"] < base.energy.components["inter_links"]


def test_custom_model_constants():
    system, result = _run()
    doubled = EnergyModel(inter_link_pj_per_byte=20.0)
    default = estimate_energy(system, result)
    custom = estimate_energy(system, result, doubled)
    assert custom.components["inter_links"] == pytest.approx(
        2 * default.components["inter_links"]
    )
