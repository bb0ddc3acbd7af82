"""Design-choice ablations beyond the paper's figures.

DESIGN.md §6 documents four implementation choices this reproduction
makes on top of the paper's prose; these figures quantify each one, plus
two sizing knobs (stitch search depth, Cluster Queue capacity) the paper
fixes without sweeping.  Each is a :class:`~repro.experiments.figures.Figure`
like the paper figures.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import NetCrafterConfig
from repro.experiments.figures import Arms, BASE, Figure, FigureResult, Table, arm, speedups


def _scheduler_arms() -> Arms:
    """Age-ordered vs the paper's round-robin Cluster Queue service."""
    full = NetCrafterConfig.full()
    return {
        "base": BASE,
        "age": arm(netcrafter=full),
        "rr": arm(netcrafter=full.with_overrides(scheduler="rr")),
    }


def _scheduler(table: Table) -> FigureResult:
    return FigureResult(
        "abl_scheduler",
        "Full NetCrafter under age-ordered vs round-robin CQ service",
        table.workloads,
        {"age": speedups(table, "age"), "rr": speedups(table, "rr")},
        notes="RR inflates gains by over-serving rare packet types "
        "(DESIGN.md §6 deviation 1)",
    )


def _early_release_arms() -> Arms:
    """Arrival-triggered release of pooled partitions, on vs off."""
    sfp = NetCrafterConfig.stitching_with_selective_pooling(32)
    return {
        "base": BASE,
        "early_release": arm(netcrafter=sfp),
        "expiry_only": arm(netcrafter=sfp.with_overrides(early_release=False)),
    }


def _early_release(table: Table) -> FigureResult:
    return FigureResult(
        "abl_early_release",
        "Stitching+SFP32 with and without arrival-triggered early release",
        table.workloads,
        {
            "early_release": speedups(table, "early_release"),
            "expiry_only": speedups(table, "expiry_only"),
        },
        notes="without early release, pooled partitions hold candidates "
        "hostage until expiry (DESIGN.md §6 deviation 3)",
    )


GRACES = (0, 8, 32)


def _pooling_grace_arms(
    graces: Sequence[int] = GRACES,
) -> Arms:
    """Work-conserving override grace before serving a pooled flit."""
    sfp = NetCrafterConfig.stitching_with_selective_pooling(32)
    return {
        "base": BASE,
        **{
            f"grace_{grace}": arm(netcrafter=sfp.with_overrides(pooling_grace=grace))
            for grace in graces
        },
    }


def _pooling_grace(table: Table, graces: Sequence[int] = GRACES) -> FigureResult:
    return FigureResult(
        "abl_pooling_grace",
        "Stitching+SFP32 vs work-conserving override grace (cycles)",
        table.workloads,
        {f"grace_{grace}": speedups(table, f"grace_{grace}") for grace in graces},
        notes="grace 0 = serve pooled flits immediately when idle; larger "
        "grace trades latency for stitch opportunities (deviation 4)",
    )


DEPTHS = (1, 4, 8, 32)


def _search_depth_arms(
    depths: Sequence[int] = DEPTHS,
) -> Arms:
    """Stitch-engine associative search window per partition."""
    sfp = NetCrafterConfig.stitching_with_selective_pooling(32)
    return {
        f"depth_{depth}": arm(
            netcrafter=sfp.with_overrides(stitch_search_depth=depth)
        )
        for depth in depths
    }


def _search_depth(table: Table, depths: Sequence[int] = DEPTHS) -> FigureResult:
    return FigureResult(
        "abl_search_depth",
        "Stitch rate vs candidate search depth",
        table.workloads,
        {
            f"depth_{depth}": [
                table[name, f"depth_{depth}"].stitch_rate()
                for name in table.workloads
            ]
            for depth in depths
        },
        notes="a deeper associative search finds more candidates at "
        "higher hardware cost; the default is 8",
    )


CAPACITIES = (64, 256, 1024)


def _cq_capacity_arms(
    capacities: Sequence[int] = CAPACITIES,
) -> Arms:
    """Cluster Queue SRAM budget (Table 2 uses 1024 x 16 B)."""
    return {
        "base": BASE,
        **{
            f"cq_{capacity}": arm(
                netcrafter=NetCrafterConfig.full().with_overrides(
                    cluster_queue_entries=capacity
                )
            )
            for capacity in capacities
        },
    }


def _cq_capacity(
    table: Table, capacities: Sequence[int] = CAPACITIES
) -> FigureResult:
    return FigureResult(
        "abl_cq_capacity",
        "Full NetCrafter vs Cluster Queue capacity",
        table.workloads,
        {f"cq_{c}": speedups(table, f"cq_{c}") for c in capacities},
        notes="the CQ mostly needs to cover bursts; Table 2's 1024 entries "
        "are comfortably sufficient",
    )


SCHEDULER = Figure(_scheduler_arms, _scheduler)
EARLY_RELEASE = Figure(_early_release_arms, _early_release)
POOLING_GRACE = Figure(_pooling_grace_arms, _pooling_grace)
SEARCH_DEPTH = Figure(_search_depth_arms, _search_depth)
CQ_CAPACITY = Figure(_cq_capacity_arms, _cq_capacity)
