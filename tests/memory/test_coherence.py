"""Tests for the hardware-coherence extension (directory + system)."""

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
from repro.memory.coherence import Directory
from repro.vm.page_table import PAGE_SIZE

HW = SystemConfig.default().with_overrides(coherence="hardware")


class TestDirectory:
    def test_record_and_query(self):
        d = Directory(home_gpu=0)
        d.record_sharer(0x1000, 2)
        d.record_sharer(0x1008, 3)  # same line
        assert d.sharers_of(0x1000) == {2, 3}
        assert len(d._sharers) == 1

    def test_invalidation_targets_exclude_writer(self):
        d = Directory(home_gpu=0)
        for gpu in (1, 2, 3):
            d.record_sharer(0x40, gpu)
        targets = d.take_invalidation_targets(0x40, writer_gpu=2)
        assert targets == [1, 3]
        # writer keeps its copy; others were dropped
        assert d.sharers_of(0x40) == {2}

    def test_no_sharers_no_targets(self):
        d = Directory(home_gpu=0)
        assert d.take_invalidation_targets(0x40, writer_gpu=1) == []

    def test_writer_not_a_sharer_drops_line(self):
        d = Directory(home_gpu=0)
        d.record_sharer(0x40, 3)
        assert d.take_invalidation_targets(0x40, writer_gpu=1) == [3]
        assert len(d._sharers) == 0

    def test_peak_tracking(self):
        d = Directory(home_gpu=0)
        d.record_sharer(0x0, 1)
        d.record_sharer(0x40, 1)
        d.take_invalidation_targets(0x0, writer_gpu=2)
        assert d.lines_tracked_peak == 2
        assert d.invalidations_issued == 1


def _workload(kernels):
    return WorkloadTrace(name="coh", kernels=kernels)


def _kernel(name, ctas, owners):
    return KernelTrace(name=name, ctas=ctas, page_owner=owners)


def _wf(accesses, gpu):
    return CtaTrace(gpu=gpu, wavefronts=[WavefrontTrace(accesses=accesses)])


class TestSystemCoherence:
    def test_remote_write_invalidates_sharer(self):
        """GPU0 caches a line of GPU1's; GPU2 writes it; GPU0's copy dies
        so its next read re-fetches."""
        addr = PAGE_SIZE * 10
        owners = {10: 1}
        reader = _wf([MemAccess(vaddr=addr, nbytes=8)], gpu=0)
        writer = _wf([MemAccess(vaddr=addr, nbytes=8, is_write=True)], gpu=2)
        rereader = _wf([MemAccess(vaddr=addr, nbytes=8)], gpu=0)
        trace = _workload(
            [
                _kernel("read", [reader], owners),
                _kernel("write", [writer], owners),
                _kernel("reread", [rereader], owners),
            ]
        )
        system = MultiGpuSystem(config=HW)
        system.load(trace)
        result = system.run()
        assert result.stats.coherence_inv_sent >= 1
        # the re-read misses (copy was invalidated, not kernel-flushed)
        assert result.stats.remote_reads_intra + result.stats.remote_reads_inter >= 2

    def test_l1_survives_kernel_boundary_without_writes(self):
        addr = PAGE_SIZE * 10
        owners = {10: 3}
        trace = _workload(
            [
                _kernel("a", [_wf([MemAccess(vaddr=addr, nbytes=8)], 0)], owners),
                _kernel("b", [_wf([MemAccess(vaddr=addr, nbytes=8)], 0)], owners),
            ]
        )
        system = MultiGpuSystem(config=HW)
        system.load(trace)
        result = system.run()
        # second kernel hits in the still-warm L1 (software mode refetches)
        assert result.stats.l1_hits >= 1
        assert result.stats.remote_reads_inter == 1
        assert result.stats.coherence_inv_sent == 0

    def test_software_mode_sends_no_invalidations(self):
        addr = PAGE_SIZE * 10
        owners = {10: 1}
        trace = _workload(
            [_kernel("w", [_wf([MemAccess(vaddr=addr, nbytes=8, is_write=True)], 0)], owners)]
        )
        system = MultiGpuSystem()
        system.load(trace)
        result = system.run()
        assert result.stats.coherence_inv_sent == 0
        assert all(gpu.directory is None for gpu in system.gpus.values())

    def test_local_write_invalidates_remote_sharers(self):
        addr = PAGE_SIZE * 10
        owners = {10: 1}
        reader = _wf([MemAccess(vaddr=addr, nbytes=8)], gpu=3)
        home_writer = _wf([MemAccess(vaddr=addr, nbytes=8, is_write=True)], gpu=1)
        trace = _workload(
            [_kernel("r", [reader], owners), _kernel("w", [home_writer], owners)]
        )
        system = MultiGpuSystem(config=HW)
        system.load(trace)
        result = system.run()
        assert result.stats.coherence_inv_sent == 1
        assert result.stats.coherence_inv_received == 1

    def test_all_invalidations_acknowledged(self):
        from repro.workloads.base import Scale
        from repro.workloads.registry import get_workload

        # at Scale.tiny() no gups write meets a sharer: small sends 85
        trace = get_workload("gups").build(n_gpus=4, scale=Scale.small(), seed=0)
        system = MultiGpuSystem(config=HW, netcrafter=NetCrafterConfig.full())
        system.load(trace)
        result = system.run()
        assert result.stats.coherence_inv_sent > 0
        assert result.stats.coherence_inv_sent == result.stats.coherence_inv_received
        for gpu in system.gpus.values():
            assert gpu.rdma.outstanding_invalidations == 0

    def test_invalid_coherence_value_rejected(self):
        with pytest.raises(ValueError, match="coherence"):
            SystemConfig.default().with_overrides(coherence="magic")
