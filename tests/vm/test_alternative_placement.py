"""Tests for the alternative placement policies and locality analysis."""

import pytest

from repro.vm.alternative_placement import (
    access_locality,
    interleave_placement,
    single_gpu_placement,
)
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

N_GPUS = 4


def _trace(name="bs", seed=0):
    return get_workload(name).build(n_gpus=N_GPUS, scale=Scale.tiny(), seed=seed)


def test_interleave_stripes_pages():
    out = interleave_placement(_trace(), N_GPUS)
    owners = list(out.kernels[0].page_owner.values())
    assert set(owners) == set(range(N_GPUS))
    # round-robin over sorted vpns
    for index, vpn in enumerate(sorted(out.kernels[0].page_owner)):
        assert out.kernels[0].page_owner[vpn] == index % N_GPUS


def test_single_gpu_places_everything_on_one():
    out = single_gpu_placement(_trace(), N_GPUS, gpu=2)
    assert set(out.kernels[0].page_owner.values()) == {2}
    with pytest.raises(ValueError):
        single_gpu_placement(_trace(), N_GPUS, gpu=9)


def test_rewrites_leave_access_streams_untouched():
    base = _trace()
    out = interleave_placement(base, N_GPUS)
    assert out.kernels[0].ctas is base.kernels[0].ctas


def test_locality_of_partitioned_workload():
    """BS under LASP is fully local; interleaving destroys that."""
    lasp = access_locality(_trace("bs"))
    naive = access_locality(interleave_placement(_trace("bs"), N_GPUS))
    assert lasp["local"] == pytest.approx(1.0)
    assert naive["local"] < 0.5


def test_locality_of_random_workload_is_low_either_way():
    lasp = access_locality(_trace("gups"))
    assert lasp["local"] < 0.5  # interleaved table: ~1/4 local at best


def test_remote_balance_reported():
    profile = access_locality(_trace("gups"))
    assert profile["remote_imbalance"] >= 1.0
    # LASP's interleaved shared structures balance remote traffic well
    assert profile["remote_imbalance"] < 2.0


def test_empty_trace_profile():
    from repro.gpu.cta import KernelTrace, WorkloadTrace

    trace = WorkloadTrace(name="e", kernels=[KernelTrace(name="k")])
    assert access_locality(trace) == {"local": 0.0, "remote_imbalance": 1.0}


def test_placed_traces_still_run():
    from repro.gpu.system import MultiGpuSystem

    out = single_gpu_placement(_trace("gups"), N_GPUS)
    system = MultiGpuSystem()
    system.load(out)
    result = system.run()
    assert result.stats.mem_ops == out.total_accesses()
    # everything homed on GPU 0: three quarters of traffic is remote
    assert result.stats.local_reads < result.stats.mem_ops
