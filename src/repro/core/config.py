"""Configuration for the NetCrafter controller and its ablations."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class PriorityMode(enum.Enum):
    """Which traffic the egress scheduler prioritizes.

    ``NONE`` is the baseline; ``PTW`` is the paper's Sequencing mechanism
    (Observation 3); ``DATA_MATCHED`` prioritizes an equal *fraction* of
    ordinary data flits instead, used only for the Figure 8
    characterization that shows data prioritization does not help.
    """

    NONE = "none"
    PTW = "ptw"
    DATA_MATCHED = "data_matched"


@dataclass(frozen=True)
class NetCrafterConfig:
    """Feature switches and parameters for one egress controller.

    The default-constructed config disables everything, yielding the
    baseline FIFO egress of the non-uniform configuration.
    """

    #: merge partially-filled flits heading to the same destination cluster
    enable_stitching: bool = False
    #: delay un-stitchable flits waiting for a candidate (Optimization I)
    enable_pooling: bool = False
    #: exempt latency-critical (PTW) flits from pooling (Optimization II)
    selective_pooling: bool = False
    #: pooling delay window, cycles (paper sweeps 32-128, picks 32)
    pooling_window: int = 32
    #: trim read responses crossing the inter-cluster network
    enable_trimming: bool = False
    #: only responses whose wavefront needs at most this many bytes trim
    trim_threshold_bytes: int = 16
    #: granularity the trimmed response (and L1 sector fill) uses
    trim_sector_bytes: int = 16
    #: prioritize PTW-related flits at the egress (Sequencing)
    enable_sequencing: bool = False
    #: explicit scheduler priority override (Figure 8 characterization)
    priority_mode: PriorityMode = PriorityMode.NONE
    #: fraction of data packets tagged priority under DATA_MATCHED
    data_priority_fraction: float = 0.13
    #: total Cluster Queue entries per controller, equally split per
    #: destination cluster by the topology builder (Table 2: 1024)
    cluster_queue_entries: int = 1024
    #: partition the Cluster Queue by packet type (CQ.type level); off in
    #: the baseline, on in every NetCrafter configuration
    partition_by_type: bool = False
    #: bound on candidates examined per partition per stitch search,
    #: modelling a realistic associative-search window
    stitch_search_depth: int = 8
    #: Cluster Queue service order: ``"age"`` (oldest staged flit first;
    #: keeps the featureless configuration identical to the baseline FIFO)
    #: or ``"rr"`` (the paper's per-partition round-robin).  DESIGN.md
    #: documents why "age" is the default at this simulation scale.
    scheduler: str = "age"
    #: release a pooled flit's partition timer as soon as an arriving flit
    #: could stitch into it (DESIGN.md §6 deviation 3)
    early_release: bool = True
    #: idle cycles before the work-conserving override serves a pooled
    #: flit instead of letting the link sit idle (DESIGN.md §6 deviation 4)
    pooling_grace: int = 8

    @property
    def effective_priority(self) -> PriorityMode:
        """Sequencing implies PTW priority unless explicitly overridden."""
        if self.priority_mode is not PriorityMode.NONE:
            return self.priority_mode
        if self.enable_sequencing:
            return PriorityMode.PTW
        return PriorityMode.NONE

    @property
    def separate_ptw_partition(self) -> bool:
        """PTW flits get their own Cluster Queue when NetCrafter needs to
        treat them specially (Sequencing, or Selective Flit Pooling)."""
        return (
            self.effective_priority is PriorityMode.PTW
            or (self.enable_pooling and self.selective_pooling)
        )

    def with_overrides(self, **kwargs) -> "NetCrafterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- presets matching the paper's evaluated configurations -------------

    @classmethod
    def baseline(cls) -> "NetCrafterConfig":
        """Non-uniform baseline: plain FIFO egress."""
        return cls()

    @classmethod
    def stitching_only(cls, pooling_window: int = 0) -> "NetCrafterConfig":
        """Stitching without pooling (Figure 12 'before Flit Pooling')."""
        return cls(
            enable_stitching=True,
            enable_pooling=pooling_window > 0,
            pooling_window=pooling_window or 32,
            partition_by_type=True,
        )

    @classmethod
    def stitching_with_pooling(cls, pooling_window: int = 32) -> "NetCrafterConfig":
        """Stitching + plain Flit Pooling (Figure 18 sweep)."""
        return cls(
            enable_stitching=True,
            enable_pooling=True,
            selective_pooling=False,
            pooling_window=pooling_window,
            partition_by_type=True,
        )

    @classmethod
    def stitching_with_selective_pooling(
        cls, pooling_window: int = 32
    ) -> "NetCrafterConfig":
        """Stitching + Selective Flit Pooling (Figure 19 sweep; the
        'Stitching' bar of Figure 14 uses the 32-cycle point)."""
        return cls(
            enable_stitching=True,
            enable_pooling=True,
            selective_pooling=True,
            pooling_window=pooling_window,
            partition_by_type=True,
        )

    @classmethod
    def stitch_trim(cls, pooling_window: int = 32) -> "NetCrafterConfig":
        """Stitching(+SFP) + Trimming (Figure 14 '+Trimming' bar)."""
        return cls.stitching_with_selective_pooling(pooling_window).with_overrides(
            enable_trimming=True
        )

    @classmethod
    def full(cls, pooling_window: int = 32) -> "NetCrafterConfig":
        """Complete NetCrafter: Stitching(+SFP) + Trimming + Sequencing."""
        return cls.stitch_trim(pooling_window).with_overrides(enable_sequencing=True)

    @classmethod
    def sequencing_only(cls) -> "NetCrafterConfig":
        """Sequencing in isolation (Figure 8 / ablations)."""
        return cls(enable_sequencing=True, partition_by_type=True)

    @classmethod
    def trimming_only(cls) -> "NetCrafterConfig":
        """Trimming in isolation (ablations / Figure 16)."""
        return cls(enable_trimming=True, partition_by_type=True)
