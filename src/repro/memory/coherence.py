"""Hardware-coherence extension: a GPU-granularity sharer directory.

The paper's baseline uses software-managed coherence (L1s flushed at
kernel boundaries); Section 4.5 notes NetCrafter "can also seamlessly
complement any underlying hardware coherence mechanisms" and leaves
exploiting the fine-grained invalidation traffic as future work.  This
module implements that extension:

* each GPU keeps a :class:`Directory` next to its L2 (home node)
  tracking which GPUs hold L1 copies of each home line;
* every write to a line makes the home send INV_REQ packets to all
  sharer GPUs except the writer, which invalidate their CUs' L1 copies
  and reply with INV_RSP acknowledgements;
* with hardware coherence on, L1s survive kernel boundaries.

The directory is idealized (unbounded, GPU-granularity, no transient
states): conservative sharer lists may trigger spurious invalidations of
already-evicted lines, which are harmless no-ops.  The point of the
extension is the *network traffic* it generates: INV packets are 1-flit,
4-12 byte payloads — prime stitching candidates.
"""

from __future__ import annotations

from typing import Dict, List, Set


class Directory:
    """Per-home-GPU sharer tracking at cache-line granularity."""

    def __init__(self, home_gpu: int, line_bytes: int = 64) -> None:
        self.home_gpu = home_gpu
        self.line_bytes = line_bytes
        self._sharers: Dict[int, Set[int]] = {}
        self.lines_tracked_peak = 0
        self.invalidations_issued = 0

    def _line(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def record_sharer(self, addr: int, gpu: int) -> None:
        """Note that ``gpu`` now holds an L1 copy of the line."""
        line = self._line(addr)
        sharers = self._sharers.setdefault(line, set())
        sharers.add(gpu)
        if len(self._sharers) > self.lines_tracked_peak:
            self.lines_tracked_peak = len(self._sharers)

    def sharers_of(self, addr: int) -> Set[int]:
        return set(self._sharers.get(self._line(addr), ()))

    def take_invalidation_targets(self, addr: int, writer_gpu: int) -> List[int]:
        """Sharers to invalidate for a write by ``writer_gpu``.

        The returned GPUs are removed from the sharer list (their copies
        are about to be invalidated); the writer keeps its own copy (its
        write-through L1 already holds the new data).
        """
        line = self._line(addr)
        sharers = self._sharers.get(line)
        if not sharers:
            return []
        targets = sorted(g for g in sharers if g != writer_gpu)
        if targets:
            self.invalidations_issued += len(targets)
        self._sharers[line] = {writer_gpu} if writer_gpu in sharers else set()
        if not self._sharers[line]:
            del self._sharers[line]
        return targets
