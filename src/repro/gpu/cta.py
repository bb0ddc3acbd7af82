"""Trace data model: what a workload hands to the GPUs.

The unit of work is a *coalesced wavefront memory access*: the paper's
64-thread wavefronts issue loads/stores that the hardware coalescer
merges into per-cache-line requests, annotated with how many bytes of
the line the wavefront actually needs (this drives Observation 2 /
Figure 7 and the Trimming mechanism).

CTAs are pre-assigned to GPUs — the output of LASP's static analysis —
and each kernel carries the matching page->owner placement map.
Kernels of a workload execute sequentially (e.g. DNN layers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.vm.page_table import PAGE_SIZE

LINE_BYTES = 64


@dataclass(frozen=True)
class MemAccess:
    """One coalesced wavefront memory instruction.

    ``nbytes`` is the number of distinct line bytes the wavefront needs;
    the access never straddles a cache line (the coalescer splits such
    accesses before this level).
    """

    vaddr: int
    nbytes: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.nbytes < 1 or self.nbytes > LINE_BYTES:
            raise ValueError(f"access size {self.nbytes} outside 1..{LINE_BYTES}")
        if (self.vaddr % LINE_BYTES) + self.nbytes > LINE_BYTES:
            raise ValueError(
                f"access at {self.vaddr:#x} (+{self.nbytes}) straddles a cache line"
            )

    @property
    def vpn(self) -> int:
        return self.vaddr // PAGE_SIZE


@dataclass
class WavefrontTrace:
    """The ordered access stream of one wavefront."""

    accesses: List[MemAccess] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.accesses)


@dataclass
class CtaTrace:
    """One Cooperative Thread Array, scheduled onto ``gpu`` by LASP."""

    gpu: int
    wavefronts: List[WavefrontTrace] = field(default_factory=list)


@dataclass
class KernelTrace:
    """One kernel launch: its CTAs plus LASP's page placement decisions."""

    name: str
    ctas: List[CtaTrace] = field(default_factory=list)
    #: vpn -> owner GPU, covering every page any CTA touches
    page_owner: Dict[int, int] = field(default_factory=dict)
    #: workload-phase label (e.g. ``"reduce_scatter"``); kernels sharing
    #: a label aggregate into one per-phase stats block
    #: (:class:`~repro.stats.collectors.PhaseStats`).  ``None`` — the
    #: default for all Table-3 workloads — disables phase tracking, so
    #: unlabelled runs serialize byte-identically to before the field
    #: existed
    phase: Optional[str] = None

    def wavefront_count(self) -> int:
        return sum(len(cta.wavefronts) for cta in self.ctas)

    def access_count(self) -> int:
        return sum(
            len(wf.accesses) for cta in self.ctas for wf in cta.wavefronts
        )

    def touched_vpns(self) -> Set[int]:
        vpns: Set[int] = set()
        for cta in self.ctas:
            for wf in cta.wavefronts:
                for acc in wf.accesses:
                    vpns.add(acc.vpn)
        return vpns

    def validate_placement(self) -> None:
        """Every touched page must have an owner (LASP premaps all pages)."""
        missing = self.touched_vpns() - set(self.page_owner)
        if missing:
            sample = sorted(missing)[:3]
            raise ValueError(
                f"kernel {self.name!r}: {len(missing)} touched pages lack an "
                f"owner (e.g. vpns {sample})"
            )


@dataclass
class WorkloadTrace:
    """A complete workload: kernels executed back-to-back."""

    name: str
    kernels: List[KernelTrace] = field(default_factory=list)

    def validate(self) -> None:
        if not self.kernels:
            raise ValueError(f"workload {self.name!r} has no kernels")
        for kernel in self.kernels:
            kernel.validate_placement()

    def total_accesses(self) -> int:
        return sum(kernel.access_count() for kernel in self.kernels)
