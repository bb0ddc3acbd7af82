"""System-level configuration (the paper's Table 2, plus scaled presets).

All bandwidths are bytes per cycle; with the 1 GHz clock of Table 2 this
equals GB/s, so the baseline's 128 GB/s intra-cluster and 16 GB/s
inter-cluster fabrics are simply 128.0 and 16.0.

Two scales are provided:

* :meth:`SystemConfig.table2` — the paper's full 64-CU-per-GPU node;
* :meth:`SystemConfig.default` — a proportionally scaled-down node
  (fewer CUs/wavefronts, same bandwidth *ratio* and memory parameters)
  that keeps pure-Python simulation times reasonable.  DESIGN.md §5
  documents why the scaling preserves the congestion regime that drives
  every result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.faults.config import FaultConfig


@dataclass(frozen=True)
class SystemConfig:
    """Structural and timing parameters of the multi-GPU node."""

    # topology
    n_clusters: int = 2
    gpus_per_cluster: int = 2
    #: inter-cluster fabric shape, resolved through the pluggable
    #: topology zoo (:mod:`repro.network.topologies`).  Shipped shapes:
    #: ``"mesh"`` (a direct link per cluster pair — the paper's
    #: two-cluster node trivially satisfies this), ``"ring"`` (adjacent
    #: neighbours, multi-hop shortest-path routing), ``"star"`` (a
    #: DGX-style central hub switch), ``"fat_tree"`` (2-level
    #: leaf/spine), ``"torus3d"`` (wraparound 3D grid)
    inter_topology: str = "mesh"
    #: per-bandwidth-class overrides for inter-switch links, as a sorted
    #: tuple of ``(class_name, bytes_per_cycle)`` pairs (a dict is
    #: accepted and normalized).  Classes not listed fall back to
    #: ``inter_cluster_bw``; valid names come from the topology's
    #: ``bw_classes`` (e.g. ``up``/``down`` for star and fat_tree,
    #: ``x``/``y``/``z`` for torus3d, ``inter`` for mesh/ring)
    link_bw_overrides: Tuple[Tuple[str, float], ...] = ()
    #: fat_tree only: spine-tier thinning factor; the spine count is
    #: ``max(1, n_clusters // (2 * oversubscription))``
    fat_tree_oversubscription: int = 1
    #: torus3d only: the ``(x, y, z)`` grid; ``None`` picks the most
    #: cube-like factorization of ``n_clusters``
    torus_dims: Optional[Tuple[int, int, int]] = None
    # compute
    cus_per_gpu: int = 8
    max_wavefronts_per_cu: int = 8
    compute_delay: int = 4  # cycles between a wavefront's memory ops
    #: outstanding memory accesses per wavefront (memory pipelining)
    wavefront_mlp: int = 4
    # network
    flit_size: int = 16
    intra_cluster_bw: float = 128.0  # bytes/cycle == GB/s at 1 GHz
    inter_cluster_bw: float = 16.0
    link_latency: int = 8
    #: latency override for inter-cluster links only; ``None`` uses
    #: ``link_latency``.  The inter-cluster latency is the conservative
    #: lookahead window for cluster-sharded execution, so scaling
    #: studies of slower fabrics also widen the synchronization window.
    inter_link_latency: Optional[int] = None
    switch_latency: int = 30
    switch_buffer_entries: int = 1024
    # L1 (per CU)
    l1_size: int = 64 * 1024
    l1_ways: int = 4
    l1_latency: int = 20
    l1_mshr_entries: int = 32
    l1_sector_bytes: int = 16
    #: ``"line"`` = conventional fills; ``"sector"`` = the all-trimming
    #: sector-cache baseline of Section 5.3
    l1_fetch_mode: str = "line"
    # L1 TLB (per CU); the default preset scales TLB reach down with the
    # working sets so translation pressure matches the paper's regime
    l1_tlb_entries: int = 16
    l1_tlb_latency: int = 1
    # L2 (per GPU)
    l2_size: int = 4 * 1024 * 1024
    l2_ways: int = 16
    l2_banks: int = 16
    l2_latency: int = 100
    l2_mshr_entries: int = 64
    # L2 TLB (per GPU)
    l2_tlb_entries: int = 64
    l2_tlb_assoc: int = 8
    l2_tlb_latency: int = 10
    # GMMU
    pwc_entries: int = 16
    pwc_latency: int = 10
    n_walkers: int = 16
    walk_mshr_entries: int = 64
    # memory
    line_bytes: int = 64
    dram_latency: int = 100
    dram_bytes_per_cycle: float = 1024.0
    dram_max_outstanding: int = 64
    #: ``"software"`` = the paper's baseline (L1s flushed at kernel
    #: boundaries); ``"hardware"`` = the directory/invalidation extension
    #: of Section 4.5's future work (see repro.memory.coherence)
    coherence: str = "software"
    #: deterministic fault injection + link reliability (repro.faults);
    #: the default is fully inert — no machinery is attached and results
    #: are byte-identical to a fault-free build.  A frozen shared default
    #: instance is safe: FaultConfig is itself frozen.
    faults: FaultConfig = FaultConfig()

    def __post_init__(self) -> None:
        if self.l1_fetch_mode not in ("line", "sector"):
            raise ValueError("l1_fetch_mode must be 'line' or 'sector'")
        if self.n_clusters < 1 or self.gpus_per_cluster < 1:
            raise ValueError("topology must have at least one cluster and GPU")
        if self.coherence not in ("software", "hardware"):
            raise ValueError("coherence must be 'software' or 'hardware'")
        if self.inter_link_latency is not None and self.inter_link_latency < 1:
            raise ValueError("inter_link_latency must be at least 1 cycle")
        if not isinstance(self.faults, FaultConfig):
            raise ValueError("faults must be a repro.faults FaultConfig")
        self._validate_topology()

    def _validate_topology(self) -> None:
        """Resolve and validate the fabric shape through the topology zoo.

        Imported lazily: :mod:`repro.network.topologies` is standalone
        (it imports nothing from ``repro``), but importing it at module
        level here would cycle through ``repro.network.__init__`` back
        into this module.
        """
        from repro.network.topologies import get_topology

        if self.fat_tree_oversubscription < 1:
            raise ValueError(
                "fat_tree_oversubscription must be >= 1, got "
                f"{self.fat_tree_oversubscription}"
            )
        if self.torus_dims is not None and not isinstance(self.torus_dims, tuple):
            object.__setattr__(self, "torus_dims", tuple(self.torus_dims))
        overrides = self.link_bw_overrides
        if isinstance(overrides, dict):
            overrides = overrides.items()
        try:
            normalized = tuple(
                sorted((str(cls), float(bw)) for cls, bw in overrides)
            )
        except (TypeError, ValueError):
            raise ValueError(
                "link_bw_overrides must map bandwidth-class names to "
                f"bytes/cycle, got {self.link_bw_overrides!r}"
            ) from None
        object.__setattr__(self, "link_bw_overrides", normalized)
        spec = get_topology(self.inter_topology)  # raises on unknown name
        spec.validate(self)
        for cls, bw in normalized:
            if cls not in spec.bw_classes:
                raise ValueError(
                    f"bandwidth class {cls!r} is not used by topology "
                    f"{self.inter_topology!r} "
                    f"(classes: {', '.join(spec.bw_classes)})"
                )
            if bw <= 0:
                raise ValueError(
                    f"bandwidth override for class {cls!r} must be "
                    f"positive, got {bw}"
                )

    # -- topology helpers ----------------------------------------------------

    @property
    def n_gpus(self) -> int:
        return self.n_clusters * self.gpus_per_cluster

    def cluster_of(self, gpu: int) -> int:
        if not 0 <= gpu < self.n_gpus:
            raise ValueError(f"no such GPU {gpu}")
        return gpu // self.gpus_per_cluster

    def bandwidth_of(self, bw_class: str) -> float:
        """Bytes/cycle for an inter-switch link of ``bw_class``.

        Per-class overrides (``link_bw_overrides``) win; everything else
        runs at the uniform ``inter_cluster_bw``.
        """
        for cls, bw in self.link_bw_overrides:
            if cls == bw_class:
                return bw
        return self.inter_cluster_bw

    @property
    def effective_inter_link_latency(self) -> int:
        """Latency of inter-cluster links (the sharding lookahead window)."""
        if self.inter_link_latency is not None:
            return self.inter_link_latency
        return self.link_latency

    def with_overrides(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)

    # -- presets ------------------------------------------------------------

    @classmethod
    def default(cls) -> "SystemConfig":
        """Scaled-down node used by tests and quick experiments."""
        return cls()

    @classmethod
    def table2(cls) -> "SystemConfig":
        """The paper's full baseline configuration (slow in pure Python)."""
        return cls(
            cus_per_gpu=64,
            max_wavefronts_per_cu=16,
            l1_tlb_entries=32,
            l2_tlb_entries=512,
            pwc_entries=32,
        )

    @classmethod
    def ideal(cls, base: "SystemConfig" = None) -> "SystemConfig":
        """All links at intra-cluster bandwidth (Figure 3's upper bound)."""
        base = base or cls.default()
        return base.with_overrides(inter_cluster_bw=base.intra_cluster_bw)

    @classmethod
    def sector_cache_baseline(
        cls, base: "SystemConfig" = None, sector_bytes: int = 16
    ) -> "SystemConfig":
        """The Section 5.3 comparison: sectored L1 fills everywhere."""
        base = base or cls.default()
        return base.with_overrides(l1_fetch_mode="sector", l1_sector_bytes=sector_bytes)
