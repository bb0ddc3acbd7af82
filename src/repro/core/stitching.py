"""Stitch Engine: merge partially-filled flits bound for the same cluster.

Section 4.2/4.4: given a *parent* flit about to be ejected, the engine
searches the Cluster Queue for candidates whose stitch cost fits within
the parent's empty (padding) bytes.  Whole single-flit packets stitch
directly; header-less payload fragments get an ID + Size prefix so the
receiver can reunite them with the rest of their packet.  Multiple
candidates may be stitched into one parent as long as they fit, and an
already-stitched parent can be stitched again if space remains.

Un-stitching needs no receiver-side buffer: the sending
:class:`repro.network.link.FlitLink` counts every stitched segment
toward its own packet and names, in the completion mask it delivers to
the receiving cluster switch, each packet a wire flit completes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.cluster_queue import ClusterQueue, QueuePartition
from repro.network.flit import Flit


class StitchEngine:
    """Best-fit stitcher over a bounded Cluster Queue search window."""

    def __init__(self, search_depth: int = 8) -> None:
        self.search_depth = search_depth
        self.parents_stitched = 0
        self.candidates_absorbed = 0
        self.bytes_stitched = 0

    def find_candidate(self, parent: Flit, queue: ClusterQueue) -> Optional[Flit]:
        """Best-fit candidate for ``parent`` among staged flits, or None.

        Best-fit = the candidate with the largest stitch cost that still
        fits, which maximizes padding reclaimed per search.
        """
        return self._best_fit(parent, queue)[0]

    def _best_fit(
        self, parent: Flit, queue: ClusterQueue
    ) -> Tuple[Optional[Flit], Optional[QueuePartition]]:
        """:meth:`find_candidate`, plus the partition holding the candidate.

        This is the hottest scan in the simulator (every ejected flit
        probes up to ``search_depth`` entries of every partition), so the
        window iteration is inlined rather than going through
        :meth:`ClusterQueue.stitch_candidates`, and the ``can_absorb``
        conditions are folded into the cost comparison — a candidate is
        admissible iff it has no segments of its own and its cached
        stitch cost fits the parent's padding.
        """
        empty = parent.empty_bytes
        if empty <= 0:
            return None, None
        depth = self.search_depth
        best: Optional[Flit] = None
        best_part: Optional[QueuePartition] = None
        best_cost = 0
        for part in queue._partitions.values():
            remaining = depth
            for flit in part.flits:
                if remaining <= 0:
                    break
                remaining -= 1
                if flit is parent:
                    continue
                cost = flit._cost  # Flit.stitch_cost's cache
                if cost < 0:
                    cost = flit.stitch_cost()
                if cost > empty or cost <= best_cost or flit.segments:
                    continue
                best, best_part, best_cost = flit, part, cost
                if cost == empty:  # perfect fit, stop early
                    return best, best_part
        return best, best_part

    def stitch_all(self, parent: Flit, queue: ClusterQueue) -> int:
        """Absorb as many candidates as fit into ``parent``.

        Returns the number of candidates absorbed; absorbed flits are
        removed from the queue (they travel inside the parent).
        """
        absorbed = 0
        while True:
            candidate, part = self._best_fit(parent, queue)
            if candidate is None:
                break
            queue.remove_flit(candidate, part)
            segment = parent.absorb(candidate)
            absorbed += 1
            self.candidates_absorbed += 1
            self.bytes_stitched += segment.wire_bytes
        if absorbed:
            self.parents_stitched += 1
        return absorbed
