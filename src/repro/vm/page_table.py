"""Four-level radix page table shared by all GPUs (UVM).

x86-style layout: 4 KB pages, 9 index bits per level, 8-byte PTEs, so a
leaf (level-4) node maps a 2 MB virtual region.  Every node occupies one
simulated physical frame on some GPU; a page-table walk reads one PTE
per level at ``node.addr + index * 8``, which is what the walkers
simulate (and what the home GPU's L2 caches).

Leaf node placement follows the paper's LASP extension: the leaf node
for a 2 MB region lives on the GPU that owns the region's *first mapped
data page*.  Interior (levels 1-3) nodes live on the root GPU; they are
almost always served by the page-walk cache after first touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

PAGE_SIZE = 4096
PTE_BYTES = 8
LEVELS = 4
BITS_PER_LEVEL = 9
INDEX_MASK = (1 << BITS_PER_LEVEL) - 1


@dataclass
class PageTableNode:
    """One 4 KB page-table node resident on ``gpu`` at physical ``addr``."""

    level: int
    gpu: int
    addr: int
    children: Dict[int, "PageTableNode"] = field(default_factory=dict)
    entries: Dict[int, int] = field(default_factory=dict)  # leaf: index -> paddr


def split_vpn(vpn: int) -> List[int]:
    """Decompose a virtual page number into per-level radix indices."""
    indices = []
    for level in range(LEVELS):
        shift = BITS_PER_LEVEL * (LEVELS - 1 - level)
        indices.append((vpn >> shift) & INDEX_MASK)
    return indices


class PageTable:
    """The shared radix table, with node frames allocated per placement."""

    def __init__(self, address_space, root_gpu: int = 0) -> None:
        self.address_space = address_space
        self.root_gpu = root_gpu
        self.root = self._new_node(level=1, gpu=root_gpu)
        self.nodes_created = 1

    def _new_node(self, level: int, gpu: int) -> PageTableNode:
        addr = self.address_space.alloc_frame(gpu)
        return PageTableNode(level=level, gpu=gpu, addr=addr)

    # -- mapping ---------------------------------------------------------------

    def map(self, vpn: int, paddr: int, leaf_owner_hint: int) -> None:
        """Install the translation ``vpn -> paddr``.

        ``leaf_owner_hint`` places a newly created leaf node (the paper's
        PTE co-placement: the hint is the owner of the first data page
        mapped in the 2 MB region).
        """
        indices = split_vpn(vpn)
        node = self.root
        for level in range(1, LEVELS):
            index = indices[level - 1]
            child = node.children.get(index)
            if child is None:
                child_level = level + 1
                gpu = leaf_owner_hint if child_level == LEVELS else self.root_gpu
                child = self._new_node(level=child_level, gpu=gpu)
                node.children[index] = child
                self.nodes_created += 1
            node = child
        node.entries[indices[LEVELS - 1]] = paddr

    def map_first(self, vpn: int, gpu: int) -> int:
        """The physical page address of ``vpn``, first mapping it to a new
        frame on ``gpu`` if it has none, in one radix descent.

        Equivalent to :meth:`translate_vpn` followed, on a miss, by
        allocating the data frame and :meth:`map` with ``gpu`` as the
        leaf hint: the data frame is allocated before any node the
        mapping creates, as there.
        """
        node = self.root
        level = 1
        while level < LEVELS:
            child = node.children.get((vpn >> (BITS_PER_LEVEL * (LEVELS - level))) & INDEX_MASK)
            if child is None:
                break
            node = child
            level += 1
        else:
            paddr = node.entries.get(vpn & INDEX_MASK)
            if paddr is not None:
                return paddr
        paddr = self.address_space.alloc_frame(gpu)
        while level < LEVELS:
            index = (vpn >> (BITS_PER_LEVEL * (LEVELS - level))) & INDEX_MASK
            level += 1
            child = self._new_node(level=level, gpu=gpu if level == LEVELS else self.root_gpu)
            node.children[index] = child
            self.nodes_created += 1
            node = child
        node.entries[vpn & INDEX_MASK] = paddr
        return paddr

    def translate_vpn(self, vpn: int) -> Optional[int]:
        """Functional lookup (no timing): physical page address or None."""
        indices = split_vpn(vpn)
        node = self.root
        for level in range(1, LEVELS):
            node = node.children.get(indices[level - 1])
            if node is None:
                return None
        return node.entries.get(indices[LEVELS - 1])

    # -- walk support -------------------------------------------------------------

    def walk(self, vpn: int) -> Tuple[List[Tuple[int, int, int]], int]:
        """One radix descent: the PTE accesses a full walk performs,
        ``[(level, pte_addr, gpu)]``, and the physical page address.

        One entry per level 1..4; the PTE for level k lives in the level-k
        node at ``node.addr + index_k * 8`` on that node's GPU.  Raises
        ``KeyError`` for unmapped pages (all pages are premapped by LASP
        before kernel launch, so a walk never faults in this model).
        """
        path: List[Tuple[int, int, int]] = []
        node = self.root
        for level in range(1, LEVELS):
            index = (vpn >> (BITS_PER_LEVEL * (LEVELS - level))) & INDEX_MASK
            path.append((level, node.addr + index * PTE_BYTES, node.gpu))
            child = node.children.get(index)
            if child is None:
                raise KeyError(f"vpn {vpn:#x} is not mapped at level {level}")
            node = child
        index = vpn & INDEX_MASK
        paddr = node.entries.get(index)
        if paddr is None:
            raise KeyError(f"vpn {vpn:#x} is not mapped")
        path.append((LEVELS, node.addr + index * PTE_BYTES, node.gpu))
        return path, paddr

    def leaf_node(self, vpn: int) -> Optional[PageTableNode]:
        indices = split_vpn(vpn)
        node = self.root
        for level in range(1, LEVELS):
            node = node.children.get(indices[level - 1])
            if node is None:
                return None
        return node
