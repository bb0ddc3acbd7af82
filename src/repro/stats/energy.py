"""Energy accounting: representative per-event costs over a finished run.

The paper reports performance only; energy is a natural companion
metric for a traffic-reduction technique, so this model tallies the
major contributors from the run's event counters:

* wire energy per byte, split inter-cluster (off-package SerDes) vs
  intra-cluster (on-package links);
* switch pipeline and Cluster Queue SRAM energy per flit;
* cache and DRAM access energy per event.

The default constants are *representative* of published ranges for
HBM-class memory and package links (order-of-magnitude correct, not
calibrated to any product); every figure derived from them is a relative
comparison between configurations under the same constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy costs in picojoules."""

    inter_link_pj_per_byte: float = 10.0  # off-package SerDes
    intra_link_pj_per_byte: float = 4.0   # on-package link
    switch_pj_per_flit: float = 5.0
    cq_sram_pj_per_flit: float = 2.0
    l1_pj_per_access: float = 25.0
    l2_pj_per_access: float = 200.0
    dram_pj_per_access: float = 2000.0


@dataclass
class EnergyBreakdown:
    """Picojoule totals per contributor for one run."""

    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return sum(self.components.values())

    @property
    def network_pj(self) -> float:
        """The traffic-dependent share NetCrafter can influence."""
        return sum(
            self.components.get(key, 0.0)
            for key in ("inter_links", "intra_links", "switches", "cluster_queues")
        )

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {"components": dict(self.components)}

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, float]]) -> "EnergyBreakdown":
        return cls(components={k: float(v) for k, v in data["components"].items()})


def energy_from_totals(
    inter_bytes: int,
    intra_bytes: int,
    switch_flits: int,
    cq_flits: int,
    l1_accesses: int,
    l2_accesses: int,
    dram_accesses: int,
    model: EnergyModel = None,
) -> EnergyBreakdown:
    """Build a breakdown from pre-summed integer event totals.

    Every component is a single ``int * float-constant`` product, so a
    breakdown computed from totals summed across cluster shards is
    bit-identical to one computed over the unsharded system.
    """
    model = model or EnergyModel()
    breakdown = EnergyBreakdown()
    breakdown.components["inter_links"] = inter_bytes * model.inter_link_pj_per_byte
    breakdown.components["intra_links"] = intra_bytes * model.intra_link_pj_per_byte
    breakdown.components["switches"] = switch_flits * model.switch_pj_per_flit
    breakdown.components["cluster_queues"] = cq_flits * model.cq_sram_pj_per_flit
    breakdown.components["l1_caches"] = l1_accesses * model.l1_pj_per_access
    breakdown.components["l2_caches"] = l2_accesses * model.l2_pj_per_access
    breakdown.components["dram"] = dram_accesses * model.dram_pj_per_access
    return breakdown


def estimate_energy(system, result, model: EnergyModel = None) -> EnergyBreakdown:
    """Tally energy from a finished :class:`MultiGpuSystem` run."""
    topo = system.topology
    inter_bytes = sum(link.stats.wire_bytes for link in topo.inter_links)
    intra_bytes = sum(link.stats.wire_bytes for link in topo.intra_links())
    switch_flits = sum(link.stats.flits for link in topo.inter_links) + sum(
        link.stats.flits for link in topo.intra_links()
    )
    cq_flits = sum(c.stats.flits_entered for c in topo.controllers)
    l2_accesses = sum(
        gpu.l2.read_requests + gpu.l2.write_requests for gpu in system.gpus.values()
    )
    dram_accesses = sum(
        gpu.dram.reads + gpu.dram.writes for gpu in system.gpus.values()
    )
    return energy_from_totals(
        inter_bytes,
        intra_bytes,
        switch_flits,
        cq_flits,
        result.stats.l1_accesses,
        l2_accesses,
        dram_accesses,
        model,
    )
