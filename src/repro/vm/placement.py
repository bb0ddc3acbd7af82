"""Physical address space and LASP-style page placement.

Each GPU owns a contiguous region of the global physical address space
(both its data frames and any page-table node frames allocated to it),
so the home GPU of any physical address is a simple range check.

LASP (Khairy et al. [42]) schedules CTAs and places data pages to
maximize locality; in this reproduction the *result* of LASP's static
index analysis is supplied by each workload as a per-page owner hint
(see :mod:`repro.workloads.base`), and :class:`LaspPlacement` realizes
it by allocating the page's frame on that GPU.
"""

from __future__ import annotations

from repro.vm.page_table import PAGE_SIZE, PageTable

#: physical frame-space per GPU (frames, not bytes): 2^24 frames = 64 GB
FRAMES_PER_GPU = 1 << 24


class AddressSpace:
    """Per-GPU bump allocation of physical frames with O(1) home lookup."""

    def __init__(self, n_gpus: int) -> None:
        if n_gpus <= 0:
            raise ValueError("need at least one GPU")
        self.n_gpus = n_gpus
        self._next_frame = [gpu * FRAMES_PER_GPU for gpu in range(n_gpus)]

    def alloc_frame(self, gpu: int) -> int:
        """Allocate one 4 KB frame on ``gpu``; returns its physical address."""
        if not 0 <= gpu < self.n_gpus:
            raise ValueError(f"no such GPU {gpu}")
        frame = self._next_frame[gpu]
        limit = (gpu + 1) * FRAMES_PER_GPU
        if frame >= limit:
            raise MemoryError(f"GPU {gpu} frame space exhausted")
        self._next_frame[gpu] = frame + 1
        return frame * PAGE_SIZE

    def home_of(self, paddr: int) -> int:
        """Home GPU of a physical address."""
        gpu = (paddr // PAGE_SIZE) // FRAMES_PER_GPU
        if not 0 <= gpu < self.n_gpus:
            raise ValueError(f"physical address {paddr:#x} outside any GPU")
        return gpu


class LaspPlacement:
    """Maps virtual pages onto GPUs per the workload's LASP owner hints."""

    def __init__(self, address_space: AddressSpace, page_table: PageTable) -> None:
        self.address_space = address_space
        self.page_table = page_table

    def map_page(self, vpn: int, owner_gpu: int) -> int:
        """Place virtual page ``vpn`` on ``owner_gpu`` (idempotent).

        Returns the physical page address.  The page table's leaf node for
        the enclosing 2 MB region is co-located with the first page mapped
        in that region (the paper's LASP extension).
        """
        return self.page_table.map_first(vpn, owner_gpu)
