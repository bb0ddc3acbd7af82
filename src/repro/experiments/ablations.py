"""Design-choice ablations beyond the paper's figures.

DESIGN.md §6 documents four implementation choices this reproduction
makes on top of the paper's prose; these drivers quantify each one, plus
two sizing knobs (stitch search depth, Cluster Queue capacity) the paper
fixes without sweeping.  Each driver returns a
:class:`~repro.experiments.figures.FigureResult` like the paper figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import NetCrafterConfig
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentScale, prefetch_variants, run_one


def _speedups(exp: ExperimentScale, variant: NetCrafterConfig) -> List[float]:
    values = []
    for name in exp.workload_names():
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        out = run_one(name, netcrafter=variant, scale=exp.scale, seed=exp.seed)
        values.append(out.speedup_over(base))
    return values


def _prefetch_configs(exp: ExperimentScale, configs) -> None:
    """Batch the baseline plus every variant through the parallel runner."""
    prefetch_variants(exp, [(None, None)] + [(None, cfg) for cfg in configs])


def ablate_scheduler(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Age-ordered vs the paper's round-robin Cluster Queue service."""
    exp = exp or ExperimentScale.standard()
    full = NetCrafterConfig.full()
    _prefetch_configs(exp, [full, full.with_overrides(scheduler="rr")])
    return FigureResult(
        "abl_scheduler",
        "Full NetCrafter under age-ordered vs round-robin CQ service",
        exp.workload_names(),
        {
            "age": _speedups(exp, full),
            "rr": _speedups(exp, full.with_overrides(scheduler="rr")),
        },
        notes="RR inflates gains by over-serving rare packet types "
        "(DESIGN.md §6 deviation 1)",
    )


def ablate_early_release(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Arrival-triggered release of pooled partitions, on vs off."""
    exp = exp or ExperimentScale.standard()
    sfp = NetCrafterConfig.stitching_with_selective_pooling(32)
    _prefetch_configs(exp, [sfp, sfp.with_overrides(early_release=False)])
    return FigureResult(
        "abl_early_release",
        "Stitching+SFP32 with and without arrival-triggered early release",
        exp.workload_names(),
        {
            "early_release": _speedups(exp, sfp),
            "expiry_only": _speedups(exp, sfp.with_overrides(early_release=False)),
        },
        notes="without early release, pooled partitions hold candidates "
        "hostage until expiry (DESIGN.md §6 deviation 3)",
    )


def ablate_pooling_grace(
    exp: Optional[ExperimentScale] = None, graces: Sequence[int] = (0, 8, 32)
) -> FigureResult:
    """Work-conserving override grace before serving a pooled flit."""
    exp = exp or ExperimentScale.standard()
    sfp = NetCrafterConfig.stitching_with_selective_pooling(32)
    _prefetch_configs(
        exp, [sfp.with_overrides(pooling_grace=grace) for grace in graces]
    )
    series: Dict[str, List[float]] = {}
    for grace in graces:
        series[f"grace_{grace}"] = _speedups(
            exp, sfp.with_overrides(pooling_grace=grace)
        )
    return FigureResult(
        "abl_pooling_grace",
        "Stitching+SFP32 vs work-conserving override grace (cycles)",
        exp.workload_names(),
        series,
        notes="grace 0 = serve pooled flits immediately when idle; larger "
        "grace trades latency for stitch opportunities (deviation 4)",
    )


def ablate_search_depth(
    exp: Optional[ExperimentScale] = None, depths: Sequence[int] = (1, 4, 8, 32)
) -> FigureResult:
    """Stitch-engine associative search window per partition."""
    exp = exp or ExperimentScale.standard()
    depth_cfgs = [
        NetCrafterConfig.stitching_with_selective_pooling(32).with_overrides(
            stitch_search_depth=depth
        )
        for depth in depths
    ]
    prefetch_variants(exp, [(None, cfg) for cfg in depth_cfgs])
    series: Dict[str, List[float]] = {}
    for depth, cfg in zip(depths, depth_cfgs):
        series[f"depth_{depth}"] = []
        for name in exp.workload_names():
            out = run_one(name, netcrafter=cfg, scale=exp.scale, seed=exp.seed)
            series[f"depth_{depth}"].append(out.stitch_rate())
    return FigureResult(
        "abl_search_depth",
        "Stitch rate vs candidate search depth",
        exp.workload_names(),
        series,
        notes="a deeper associative search finds more candidates at "
        "higher hardware cost; the default is 8",
    )


def ablate_cq_capacity(
    exp: Optional[ExperimentScale] = None, capacities: Sequence[int] = (64, 256, 1024)
) -> FigureResult:
    """Cluster Queue SRAM budget (Table 2 uses 1024 x 16 B)."""
    exp = exp or ExperimentScale.standard()
    _prefetch_configs(
        exp,
        [
            NetCrafterConfig.full().with_overrides(cluster_queue_entries=capacity)
            for capacity in capacities
        ],
    )
    series: Dict[str, List[float]] = {}
    for capacity in capacities:
        cfg = NetCrafterConfig.full().with_overrides(cluster_queue_entries=capacity)
        series[f"cq_{capacity}"] = _speedups(exp, cfg)
    return FigureResult(
        "abl_cq_capacity",
        "Full NetCrafter vs Cluster Queue capacity",
        exp.workload_names(),
        series,
        notes="the CQ mostly needs to cover bursts; Table 2's 1024 entries "
        "are comfortably sufficient",
    )
