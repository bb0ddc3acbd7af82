"""Sequencing: scheduler priority for latency-critical flits.

Observations 3 and 4: PTW-related flits (page-table requests and
responses) sit on the critical path of data reads yet account for only
~13% of lower-bandwidth-network traffic, so prioritizing them at the
egress improves performance without hurting data queuing latency.

The policy also implements the Figure 8 characterization mode that
instead prioritizes an equal fraction of ordinary data packets,
demonstrating that data prioritization does not help.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.cluster_queue import PRIORITY_DATA_PARTITION, PTW_PARTITION
from repro.core.config import PriorityMode
from repro.network.packet import Packet


class SequencingPolicy:
    """Decides the preferred Cluster Queue partition and priority tags."""

    def __init__(
        self,
        mode: PriorityMode,
        data_priority_fraction: float = 0.13,
        seed: int = 0,
    ) -> None:
        self.mode = mode
        self.data_priority_fraction = data_priority_fraction
        # only DATA_MATCHED draws, and seeding a generator is about a
        # third of an egress controller's construction
        self._rng = random.Random(seed) if mode is PriorityMode.DATA_MATCHED else None
        self.prioritized_packets = 0

    @property
    def preferred_partition(self) -> Optional[str]:
        """Partition served with strict preference by the scheduler."""
        if self.mode is PriorityMode.PTW:
            return PTW_PARTITION
        if self.mode is PriorityMode.DATA_MATCHED:
            return PRIORITY_DATA_PARTITION
        return None

    def tag_priority_data(self, packet: Packet) -> bool:
        """Under DATA_MATCHED, tag a matched fraction of data packets.

        The fraction matches the average share of PTW traffic so the two
        prioritization experiments move the same volume (Figure 8).
        """
        if self.mode is not PriorityMode.DATA_MATCHED or packet.is_ptw:
            return False
        if self._rng.random() < self.data_priority_fraction:
            self.prioritized_packets += 1
            return True
        return False
