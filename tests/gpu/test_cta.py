"""Tests for the trace data model."""

import pytest

from repro.gpu.cta import (
    CtaTrace,
    KernelTrace,
    MemAccess,
    WavefrontTrace,
    WorkloadTrace,
)
from repro.vm.page_table import PAGE_SIZE


def test_access_validation():
    MemAccess(vaddr=0, nbytes=64)  # fine
    with pytest.raises(ValueError):
        MemAccess(vaddr=0, nbytes=0)
    with pytest.raises(ValueError):
        MemAccess(vaddr=0, nbytes=65)
    with pytest.raises(ValueError):
        MemAccess(vaddr=32, nbytes=64)  # straddles


def test_access_derived_fields():
    acc = MemAccess(vaddr=PAGE_SIZE * 3 + 130, nbytes=8)
    assert acc.vpn == 3


def test_kernel_counts():
    wf = WavefrontTrace(accesses=[MemAccess(vaddr=0, nbytes=8)] * 3)
    kernel = KernelTrace(
        name="k",
        ctas=[CtaTrace(gpu=0, wavefronts=[wf, wf]), CtaTrace(gpu=1, wavefronts=[wf])],
        page_owner={0: 0},
    )
    assert kernel.wavefront_count() == 3
    assert kernel.access_count() == 9
    assert kernel.touched_vpns() == {0}


def test_placement_validation_catches_missing_pages():
    wf = WavefrontTrace(accesses=[MemAccess(vaddr=PAGE_SIZE * 5, nbytes=8)])
    kernel = KernelTrace(name="k", ctas=[CtaTrace(gpu=0, wavefronts=[wf])])
    with pytest.raises(ValueError, match="lack an owner"):
        kernel.validate_placement()
    kernel.page_owner[5] = 2
    kernel.validate_placement()


def test_workload_validation():
    with pytest.raises(ValueError, match="no kernels"):
        WorkloadTrace(name="w").validate()


def test_workload_totals():
    wf = WavefrontTrace(accesses=[MemAccess(vaddr=0, nbytes=8)] * 2)
    kernel = KernelTrace(
        name="k", ctas=[CtaTrace(gpu=0, wavefronts=[wf])], page_owner={0: 0}
    )
    trace = WorkloadTrace(name="w", kernels=[kernel, kernel])
    trace.validate()
    assert trace.total_accesses() == 4
