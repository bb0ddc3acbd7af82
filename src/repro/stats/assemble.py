"""Canonical result assembly from per-slice harvests.

:class:`~repro.gpu.system.MultiGpuSystem` and the cluster-sharded
coordinator (:mod:`repro.shard`) must produce **byte-identical**
:class:`~repro.stats.report.RunResult` payloads for the same simulated
run.  The only parts of assembly that are sensitive to evaluation order
are floating-point accumulations (link busy-cycle sums); everything else
is integer arithmetic.  Both paths therefore funnel through this module:
each node slice (the whole node on a single engine, one cluster range
per shard) ends its run with one :class:`SliceHarvest` of per-link /
per-controller *rows* (ints plus one already-divided busy-cycle float
each) in the topology's canonical order, and :func:`assemble_result`
folds a list of them with a fixed operation order.  Shards own
contiguous cluster ranges, so concatenating their rows in shard order
reproduces the global topology order — and the same float accumulation
sequence as the single-engine run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.stats.collectors import RunStats
from repro.stats.energy import energy_from_totals
from repro.stats.report import RunResult

__all__ = [
    "ControllerRow",
    "LinkRow",
    "SliceHarvest",
    "assemble_result",
    "controller_row",
    "link_row",
]

#: (flits, wire_bytes, useful_bytes, busy_cycles) snapshot of one link.
#: ``busy_cycles`` is the single exact division done by
#: :class:`~repro.network.link.LinkStats`; shipping the float (rather
#: than the byte numerator) is safe because the division happens once
#: per link either way, on identical operands.
LinkRow = Tuple[int, int, int, float]


@dataclass
class ControllerRow:
    """Snapshot of one egress controller's result-relevant counters."""

    flits_entered: int
    flits_absorbed: int
    parents_stitched: int
    ptw_flits: int
    data_flits: int
    ptw_bytes: int
    data_bytes: int
    packets_trimmed: int
    trim_bytes_saved: int
    occupancy: Counter = field(default_factory=Counter)


def link_row(link) -> LinkRow:
    """Extract a :data:`LinkRow` from a live link."""
    stats = link.stats
    return (stats.flits, stats.wire_bytes, stats.useful_bytes, stats.busy_cycles)


def controller_row(controller) -> ControllerRow:
    """Extract a :class:`ControllerRow` from a live controller."""
    stats = controller.stats
    return ControllerRow(
        flits_entered=stats.flits_entered,
        flits_absorbed=stats.flits_absorbed,
        parents_stitched=stats.parents_stitched,
        ptw_flits=stats.ptw_flits,
        data_flits=stats.data_flits,
        ptw_bytes=stats.ptw_bytes,
        data_bytes=stats.data_bytes,
        packets_trimmed=controller.packets_trimmed,
        trim_bytes_saved=controller.trim_bytes_saved,
        occupancy=Counter(stats.occupancy),
    )


@dataclass
class SliceHarvest:
    """One node slice's end-of-run totals, rows in topology order."""

    stats: RunStats
    events: int
    inter_rows: List[LinkRow]
    up_rows: List[LinkRow]
    down_rows: List[LinkRow]
    controller_rows: List[ControllerRow]
    l2_accesses: int
    dram_accesses: int


def assemble_result(
    workload: str,
    config_label: str,
    cycles: int,
    kernel_count: int,
    slices: List[SliceHarvest],
) -> RunResult:
    """Fold slice harvests into a :class:`RunResult` with a fixed operation order.

    ``slices`` are in cluster order (one for a single engine, one per
    shard).  The remaining slices' stats fold into the first slice's, so
    a single-engine run merges nothing.  Intra rows are every slice's
    uplinks, then every slice's downlinks — for one slice exactly
    ``Topology.intra_links()`` — so the float accumulations below see
    the same addend sequence however the run was executed.
    """
    stats = slices[0].stats
    for other in slices[1:]:
        stats.merge(other.stats)
    stats.kernel_count = kernel_count
    stats.finish_cycle = cycles
    inter_rows = [row for part in slices for row in part.inter_rows]
    intra_rows = [row for part in slices for row in part.up_rows] + [
        row for part in slices for row in part.down_rows
    ]
    controller_rows = [row for part in slices for row in part.controller_rows]
    l2_accesses = sum(part.l2_accesses for part in slices)
    dram_accesses = sum(part.dram_accesses for part in slices)
    result = RunResult(
        workload=workload,
        config_label=config_label,
        cycles=cycles,
        stats=stats,
        events_processed=sum(part.events for part in slices),
    )
    for flits, wire_bytes, useful_bytes, busy_cycles in inter_rows:
        result.inter_flits_sent += flits
        result.inter_wire_bytes += wire_bytes
        result.inter_useful_bytes += useful_bytes
        result.inter_busy_cycles += min(busy_cycles, float(result.cycles))
    result.inter_links = len(inter_rows)
    for _flits, _wire_bytes, _useful_bytes, busy_cycles in intra_rows:
        result.intra_busy_cycles += busy_cycles
    result.intra_links = len(intra_rows)
    for row in controller_rows:
        result.flits_entered += row.flits_entered
        result.flits_absorbed += row.flits_absorbed
        result.parents_stitched += row.parents_stitched
        result.ptw_flits += row.ptw_flits
        result.data_flits += row.data_flits
        result.ptw_bytes += row.ptw_bytes
        result.data_bytes += row.data_bytes
        result.packets_trimmed += row.packets_trimmed
        result.trim_bytes_saved += row.trim_bytes_saved
        result.occupancy.update(row.occupancy)
    # energy inputs are pure int sums (order-independent); the breakdown
    # itself is one int*const product per component
    inter_bytes = sum(row[1] for row in inter_rows)
    intra_bytes = sum(row[1] for row in intra_rows)
    switch_flits = sum(row[0] for row in inter_rows) + sum(
        row[0] for row in intra_rows
    )
    cq_flits = sum(row.flits_entered for row in controller_rows)
    result.energy = energy_from_totals(
        inter_bytes,
        intra_bytes,
        switch_flits,
        cq_flits,
        stats.l1_accesses,
        l2_accesses,
        dram_accesses,
    )
    return result
