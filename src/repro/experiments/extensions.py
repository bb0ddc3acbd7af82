"""Extension experiments beyond the paper's evaluation.

Covers the Section 4.5 future-work direction we implemented (hardware
cache coherence, whose "fine-grained nature ... presents additional
opportunities for stitching"), node-scaling beyond the 2x2 topology,
and the Section 5.1 placement-soundness analysis.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.figures import Arms, BASE, Figure, FigureResult, Table, arm, speedups
from repro.experiments.runner import ExperimentScale
from repro.stats.report import geometric_mean
from repro.vm.alternative_placement import PLACEMENTS, access_locality
from repro.workloads.registry import get_workload

#: the hardware-coherence node of the coherence extensions
HW_COHERENCE = SystemConfig.default().with_overrides(coherence="hardware")


def _coherence_arms() -> Arms:
    nc = NetCrafterConfig.full()
    return {
        "sw": BASE,
        "sw_nc": arm(netcrafter=nc),
        "hw": arm(HW_COHERENCE),
        "hw_nc": arm(HW_COHERENCE, nc),
    }


def _coherence(table: Table) -> FigureResult:
    """NetCrafter under software vs hardware coherence.

    Series (all speedups are over the matching coherence baseline, so the
    comparison isolates NetCrafter's effect):

    * ``nc_over_sw`` — full NetCrafter vs the software-coherence baseline
      (the paper's Figure 14 configuration);
    * ``nc_over_hw`` — full NetCrafter vs the hardware-coherence baseline;
    * ``stitch_rate_sw`` / ``stitch_rate_hw`` — the fraction of egress
      flits stitched under each coherence model.
    """
    series: Dict[str, List[float]] = {
        "nc_over_sw": speedups(table, "sw_nc", "sw"),
        "nc_over_hw": speedups(table, "hw_nc", "hw"),
        "stitch_rate_sw": [table[n, "sw_nc"].stitch_rate() for n in table.workloads],
        "stitch_rate_hw": [table[n, "hw_nc"].stitch_rate() for n in table.workloads],
    }
    result = FigureResult(
        "ext_coherence",
        "Full NetCrafter under software vs hardware coherence",
        table.workloads,
        series,
    )
    result.notes = (
        f"geomean speedup: sw {geometric_mean(series['nc_over_sw']):.3f}, "
        f"hw {geometric_mean(series['nc_over_hw']):.3f}; coherence traffic "
        "adds stitching candidates (Section 4.5 future work)"
    )
    return result


def _coherence_traffic_arms() -> Arms:
    return {"sw": BASE, "hw": arm(HW_COHERENCE)}


def _coherence_traffic(table: Table) -> FigureResult:
    """How much invalidation traffic hardware coherence generates."""
    inv_per_kop = []
    for name in table.workloads:
        hw_base = table[name, "hw"]
        ops = max(1, hw_base.stats.mem_ops)
        inv_per_kop.append(1000.0 * hw_base.stats.coherence_inv_sent / ops)
    return FigureResult(
        "ext_coherence_traffic",
        "Hardware-coherence invalidations per kilo-op, and its raw cost",
        table.workloads,
        {
            "inv_per_kop": inv_per_kop,
            "hw_over_sw_baseline": speedups(table, "hw", "sw"),
        },
        notes="hw coherence trades invalidation traffic for warm L1s "
        "across kernel boundaries",
    )


#: topology points for the scaling study: (clusters, gpus/cluster, fabric)
SCALING_TOPOLOGIES = [
    (2, 2, "mesh"),
    (3, 2, "mesh"),
    (4, 2, "mesh"),
    (4, 2, "ring"),
]


def _scaling_labels() -> List[str]:
    return [f"{c}x{g}_{fabric}" for c, g, fabric in SCALING_TOPOLOGIES]


def _scaling_arms() -> Arms:
    arms: Arms = {}
    for (clusters, gpus, fabric), label in zip(SCALING_TOPOLOGIES, _scaling_labels()):
        system = SystemConfig.default().with_overrides(
            n_clusters=clusters, gpus_per_cluster=gpus, inter_topology=fabric
        )
        arms[f"base@{label}"] = arm(system)
        arms[f"ideal@{label}"] = arm(SystemConfig.ideal(system))
        arms[f"netcrafter@{label}"] = arm(system, NetCrafterConfig.full())
    return arms


def _scaling(table: Table) -> FigureResult:
    """NetCrafter as the node grows beyond the paper's 2x2 (extension).

    For each topology: the ideal network's headroom over the non-uniform
    baseline, and how much of it full NetCrafter recovers (geomeans over
    the workload set).  The ring point shows NetCrafter surviving
    multi-hop store-and-forward routing.
    """
    labels = _scaling_labels()
    return FigureResult(
        "ext_scaling",
        "Ideal headroom vs NetCrafter gain as the node scales",
        labels,
        {
            key: [
                geometric_mean(speedups(table, f"{key}@{label}", f"base@{label}"))
                for label in labels
            ]
            for key in ("ideal", "netcrafter")
        },
        notes="NetCrafter keeps recovering a large share of the ideal "
        "network's headroom on bigger nodes and ring fabrics",
    )


#: topology-zoo sweep points: every registered fabric on a fixed
#: 4-cluster x 1-GPU node, so differences are purely the fabric shape
TOPOLOGY_ZOO = ("mesh", "ring", "star", "fat_tree", "torus3d")


def _zoo_system(fabric: str) -> SystemConfig:
    return SystemConfig.default().with_overrides(
        n_clusters=4, gpus_per_cluster=1, inter_topology=fabric
    )


def _topology_arms() -> Arms:
    arms: Arms = {}
    for fabric in TOPOLOGY_ZOO:
        arms[f"base@{fabric}"] = arm(_zoo_system(fabric))
        arms[f"nc@{fabric}"] = arm(_zoo_system(fabric), NetCrafterConfig.full())
    return arms


def _topology(table: Table) -> FigureResult:
    """NetCrafter across the topology zoo (extension).

    Holds the node fixed (4 clusters x 1 GPU) and sweeps every
    registered inter-cluster fabric.  Series, per fabric:

    * ``netcrafter`` — full NetCrafter's geomean speedup over that
      fabric's own baseline (does stitching/trimming survive hubs,
      spines, and dimension-ordered routing?);
    * ``baseline_vs_mesh`` — the fabric's baseline cycles relative to
      the mesh baseline (how much the shape itself costs, >1 = slower).
    """
    crafted_series: List[float] = []
    shape_cost_series: List[float] = []
    for fabric in TOPOLOGY_ZOO:
        crafted_series.append(
            geometric_mean(speedups(table, f"nc@{fabric}", f"base@{fabric}"))
        )
        shape_cost_series.append(
            geometric_mean(
                [
                    table[n, f"base@{fabric}"].cycles / table[n, "base@mesh"].cycles
                    for n in table.workloads
                ]
            )
        )
    return FigureResult(
        "ext_topology",
        "Full NetCrafter across the inter-cluster topology zoo",
        list(TOPOLOGY_ZOO),
        {"netcrafter": crafted_series, "baseline_vs_mesh": shape_cost_series},
        notes="star/fat_tree pay two store-and-forward hops through "
        "virtual switches and torus3d routes dimension-ordered; "
        "NetCrafter's per-link mechanisms apply unchanged on every hop",
    )


def _placement_workloads(exp: ExperimentScale) -> List[str]:
    """Each workload under LASP, then as every naive placement's derived
    workload (``gups@interleave``)."""
    return [
        f"{name}@{policy}" if policy else name
        for name in exp.workload_names()
        for policy in ("", *PLACEMENTS)
    ]


def _placement(table: Table) -> FigureResult:
    """Section 5.1's baseline-soundness analysis: LASP vs naive placement.

    Series: fraction of local accesses under LASP vs interleaved
    striping, and the slowdown naive placements cause (LASP cycles /
    policy cycles, <1 means the naive policy is slower).  Confirms the
    paper's claim that the network bottleneck is not a placement
    artifact: LASP is already near-optimal for these workloads.
    """
    exp = table.exp
    n_gpus = SystemConfig.default().n_gpus
    labels = exp.workload_names()
    series: Dict[str, List[float]] = {
        "local_lasp": [],
        "local_interleave": [],
        "speedup_vs_interleave": [],
        "speedup_vs_single_gpu": [],
    }
    for name in labels:
        for key, workload in (
            ("local_lasp", name),
            ("local_interleave", f"{name}@interleave"),
        ):
            trace = get_workload(workload).build(
                n_gpus=n_gpus, scale=exp.scale, seed=exp.seed
            )
            series[key].append(access_locality(trace)["local"])
        lasp_cycles = table[name, "lasp"].cycles
        for policy in PLACEMENTS:
            series[f"speedup_vs_{policy}"].append(
                table[f"{name}@{policy}", "lasp"].cycles / lasp_cycles
            )
    return FigureResult(
        "ext_placement",
        "LASP vs naive page placement (Section 5.1 soundness analysis)",
        labels,
        series,
        notes="LASP maximizes local accesses; naive placements leave "
        "performance on the table, so the paper's baseline is fair",
    )


def _energy_arms() -> Arms:
    return {"base": BASE, "nc": arm(netcrafter=NetCrafterConfig.full())}


def _energy(table: Table) -> FigureResult:
    """Network energy with NetCrafter, normalized to the baseline.

    Performance papers about traffic reduction imply an energy story;
    this extension quantifies it with the representative per-event model
    in :mod:`repro.stats.energy` (relative comparisons only).
    """
    labels: List[str] = []
    series: Dict[str, List[float]] = {"network_energy": [], "total_energy": []}
    for name in table.workloads:
        base, out = table[name, "base"], table[name, "nc"]
        if base.energy.network_pj <= 0:
            continue
        labels.append(name)
        series["network_energy"].append(out.energy.network_pj / base.energy.network_pj)
        series["total_energy"].append(out.energy.total_pj / base.energy.total_pj)
    return FigureResult(
        "ext_energy",
        "NetCrafter energy normalized to the baseline (lower is better)",
        labels,
        series,
        notes="stitching/trimming remove wire bytes and flits, so network "
        "energy falls with the traffic",
    )


COHERENCE = Figure(_coherence_arms, _coherence)
COHERENCE_TRAFFIC = Figure(_coherence_traffic_arms, _coherence_traffic)
SCALING = Figure(_scaling_arms, _scaling)
TOPOLOGY = Figure(_topology_arms, _topology)
PLACEMENT = Figure(lambda: {"lasp": BASE}, _placement, _placement_workloads)
ENERGY = Figure(_energy_arms, _energy)
