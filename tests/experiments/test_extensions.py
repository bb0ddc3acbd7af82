"""Smoke tests for the extension experiment drivers."""

from repro.experiments import run_figure
from repro.experiments.runner import ExperimentScale
from repro.workloads.base import Scale

EXP = ExperimentScale(scale=Scale.tiny(), workloads=("gups", "lenet"))


def test_ext_hw_coherence_shape():
    result = run_figure("ext_coherence", EXP)
    assert set(result.series) == {
        "nc_over_sw",
        "nc_over_hw",
        "stitch_rate_sw",
        "stitch_rate_hw",
    }
    assert result.labels == ["gups", "lenet"]
    assert "geomean" in result.notes


def test_ext_coherence_traffic_shape():
    result = run_figure("ext_coherence_traffic", EXP)
    assert set(result.series) == {"inv_per_kop", "hw_over_sw_baseline"}
    assert all(v >= 0 for v in result.series["inv_per_kop"])


def test_ext_scaling_covers_all_topologies():
    result = run_figure("ext_scaling", EXP)
    assert result.labels == ["2x2_mesh", "3x2_mesh", "4x2_mesh", "4x2_ring"]
    assert set(result.series) == {"ideal", "netcrafter"}
    assert all(v > 0 for vals in result.series.values() for v in vals)
