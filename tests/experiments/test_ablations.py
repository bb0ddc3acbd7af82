"""Smoke tests for the design-choice ablation drivers."""

from repro.experiments import ablations
from repro.experiments.runner import ExperimentScale
from repro.workloads.base import Scale

EXP = ExperimentScale(scale=Scale.tiny(), workloads=("gups", "spmv"))


def _check(result, expected_series):
    assert set(result.series) == set(expected_series)
    for values in result.series.values():
        assert len(values) == len(result.labels)
    assert result.figure_id in result.to_table()


def test_ablate_scheduler():
    _check(ablations.ablate_scheduler(EXP), {"age", "rr"})


def test_ablate_early_release():
    _check(
        ablations.ablate_early_release(EXP), {"early_release", "expiry_only"}
    )


def test_ablate_pooling_grace():
    result = ablations.ablate_pooling_grace(EXP, graces=(0, 8))
    _check(result, {"grace_0", "grace_8"})


def test_ablate_search_depth():
    result = ablations.ablate_search_depth(EXP, depths=(1, 8))
    _check(result, {"depth_1", "depth_8"})
    assert all(0.0 <= v <= 1.0 for vals in result.series.values() for v in vals)


def test_ablate_cq_capacity():
    result = ablations.ablate_cq_capacity(EXP, capacities=(64, 1024))
    _check(result, {"cq_64", "cq_1024"})
