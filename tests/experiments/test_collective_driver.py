"""Smoke tests for the ext_collective experiment driver."""

import pytest

from repro.experiments import collective, run_figure
from repro.experiments.runner import ExperimentScale
from repro.workloads.base import Scale
from repro.workloads.registry import collective_workload_names

EXP = ExperimentScale(scale=Scale.tiny())


@pytest.fixture(autouse=True)
def _mesh_only(monkeypatch):
    # one fabric keeps the smoke fast; the full sweep runs via the CLI
    monkeypatch.setattr(collective, "COLLECTIVE_TOPOLOGIES", ("mesh",))


def test_ext_collective_shape():
    result = run_figure("ext_collective", EXP)
    names = collective_workload_names()
    assert result.labels == [f"{n}@mesh" for n in names]
    assert set(result.series) == {
        "base_cycles",
        "nc_cycles",
        "nc_speedup",
        "stitch_rate",
    }
    assert all(len(v) == len(result.labels) for v in result.series.values())
    assert all(v > 0 for v in result.series["nc_speedup"])
    assert all(0 <= v <= 1 for v in result.series["stitch_rate"])
    assert "geomean" in result.notes
    # the per-phase narrative covers the mesh points
    assert "pp_bubble" in result.notes


def test_collective_system_nodes():
    mesh = collective.collective_system("mesh")
    assert (mesh.n_clusters, mesh.gpus_per_cluster) == (2, 2)
    star = collective.collective_system("star")
    assert (star.n_clusters, star.gpus_per_cluster) == (4, 1)
    assert star.inter_topology == "star"
