"""End-to-end system tests on hand-built and generated workloads."""

import re

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import (
    CtaTrace,
    KernelTrace,
    MemAccess,
    WavefrontTrace,
    WorkloadTrace,
)
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.vm.page_table import PAGE_SIZE
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload


def _simple_workload(n_accesses=4, owner=3, write=False):
    """One wavefront on GPU 0 reading pages owned by ``owner``."""
    accesses = [
        MemAccess(vaddr=PAGE_SIZE * 10 + i * 64, nbytes=8, is_write=write)
        for i in range(n_accesses)
    ]
    kernel = KernelTrace(
        name="k",
        ctas=[CtaTrace(gpu=0, wavefronts=[WavefrontTrace(accesses=accesses)])],
        page_owner={10: owner},
    )
    return WorkloadTrace(name="simple", kernels=[kernel])


def test_run_without_load_raises():
    with pytest.raises(RuntimeError):
        MultiGpuSystem().run()


def test_simple_remote_read_completes():
    system = MultiGpuSystem()
    system.load(_simple_workload())
    result = system.run()
    assert result.cycles > 0
    assert result.stats.mem_ops == 4
    assert result.stats.reads == 4
    # GPU 0 reading GPU 3's memory crosses clusters
    assert result.stats.remote_reads_inter >= 1
    assert result.inter_flits_sent > 0


def test_local_accesses_skip_network():
    system = MultiGpuSystem()
    system.load(_simple_workload(owner=0))
    result = system.run()
    assert result.stats.local_reads >= 1
    assert result.inter_flits_sent == 0


def test_intra_cluster_remote_does_not_use_inter_link():
    system = MultiGpuSystem()
    system.load(_simple_workload(owner=1))  # GPU 1 is in GPU 0's cluster
    result = system.run()
    assert result.stats.remote_reads_intra >= 1
    assert result.inter_flits_sent == 0


def test_writes_complete_and_ack():
    system = MultiGpuSystem()
    system.load(_simple_workload(write=True, owner=2))
    result = system.run()
    assert result.stats.writes == 4
    assert result.stats.remote_writes_inter >= 1
    for gpu in system.gpus.values():
        assert gpu.rdma.outstanding_writes == 0


def test_l1_caches_remote_data():
    """Two reads of the same line: second hits in L1."""
    accesses = [MemAccess(vaddr=PAGE_SIZE * 10, nbytes=8)] * 2
    kernel = KernelTrace(
        name="k",
        ctas=[CtaTrace(gpu=0, wavefronts=[WavefrontTrace(accesses=accesses)])],
        page_owner={10: 3},
    )
    system = MultiGpuSystem(
        config=SystemConfig.default().with_overrides(wavefront_mlp=1)
    )
    system.load(WorkloadTrace(name="w", kernels=[kernel]))
    result = system.run()
    assert result.stats.l1_hits == 1
    assert result.stats.remote_reads_inter == 1


def test_kernel_boundary_invalidates_l1():
    accesses = [MemAccess(vaddr=PAGE_SIZE * 10, nbytes=8)]
    def kernel():
        return KernelTrace(
            name="k",
            ctas=[CtaTrace(gpu=0, wavefronts=[WavefrontTrace(accesses=list(accesses))])],
            page_owner={10: 3},
        )
    system = MultiGpuSystem()
    system.load(WorkloadTrace(name="w", kernels=[kernel(), kernel()]))
    result = system.run()
    assert result.stats.kernel_count == 2
    # same line fetched again after the flush
    assert result.stats.remote_reads_inter == 2


def test_determinism_same_seed():
    results = []
    for _ in range(2):
        trace = get_workload("gups").build(n_gpus=4, scale=Scale.tiny(), seed=3)
        system = MultiGpuSystem(seed=3)
        system.load(trace)
        results.append(system.run().cycles)
    assert results[0] == results[1]


def test_different_seeds_give_different_traces():
    def addresses(seed):
        trace = get_workload("gups").build(n_gpus=4, scale=Scale.tiny(), seed=seed)
        return [
            acc.vaddr
            for kernel in trace.kernels
            for cta in kernel.ctas
            for wf in cta.wavefronts
            for acc in wf.accesses
        ]

    assert addresses(0) != addresses(1)


def test_netcrafter_delivers_all_traffic():
    """Conservation: with NetCrafter on, every entered flit is either sent
    as a parent or absorbed into one, and all wavefronts complete."""
    trace = get_workload("gups").build(n_gpus=4, scale=Scale.tiny(), seed=0)
    system = MultiGpuSystem(netcrafter=NetCrafterConfig.full())
    system.load(trace)
    result = system.run()
    assert result.flits_entered == result.flits_absorbed + result.inter_flits_sent
    assert result.stats.finish_cycle is not None


def test_trim_config_must_match_sector_size():
    bad = NetCrafterConfig.trimming_only().with_overrides(trim_sector_bytes=8)
    with pytest.raises(ValueError, match="granularity"):
        MultiGpuSystem(netcrafter=bad)


@pytest.mark.parametrize(
    "front_end",
    [MultiGpuSystem, lambda **kw: ShardedSystem(n_shards=2, **kw)],
    ids=["single", "sharded"],
)
def test_both_front_ends_share_the_trim_granularity_check(front_end):
    bad = NetCrafterConfig.trimming_only().with_overrides(trim_sector_bytes=8)
    message = "trim granularity must match the L1 sector size (8 != 16)"
    with pytest.raises(ValueError, match=re.escape(message)):
        front_end(netcrafter=bad)


def test_config_label():
    assert MultiGpuSystem()._config_label() == "baseline"
    assert (
        MultiGpuSystem(netcrafter=NetCrafterConfig.full())._config_label()
        == "stitch+sfp32+trim+seq"
    )
    assert (
        MultiGpuSystem(config=SystemConfig.sector_cache_baseline())._config_label()
        == "sector16"
    )


def test_result_collects_controller_stats():
    trace = get_workload("spmv").build(n_gpus=4, scale=Scale.tiny(), seed=0)
    system = MultiGpuSystem(netcrafter=NetCrafterConfig.stitch_trim())
    system.load(trace)
    result = system.run()
    assert result.flits_entered > 0
    assert result.packets_trimmed > 0
    assert result.inter_links == 2


def test_empty_kernel_is_skipped():
    kernel = KernelTrace(name="empty", ctas=[], page_owner={})
    follow = KernelTrace(
        name="k",
        ctas=[CtaTrace(gpu=0, wavefronts=[WavefrontTrace(
            accesses=[MemAccess(vaddr=PAGE_SIZE * 10, nbytes=8)])])],
        page_owner={10: 0},
    )
    system = MultiGpuSystem()
    system.load(WorkloadTrace(name="w", kernels=[kernel, follow]))
    result = system.run()
    assert result.stats.kernel_count == 2


def test_every_gmmu_on_the_engine_shares_one_walk_retry_schedule():
    """Walk-MSHR retries due in one cycle must run in one chain order
    across GPUs, so the node hands all its GMMUs one schedule."""
    system = MultiGpuSystem()
    schedules = {id(gpu.gmmu.walk_retries) for gpu in system.gpus.values()}
    assert schedules == {id(system.walk_retries)}
    assert system.walk_retries.engine is system.engine
