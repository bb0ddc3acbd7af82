"""Per-figure experiment drivers.

Each ``figN_*`` function regenerates one figure of the paper's
evaluation and returns a :class:`FigureResult` whose series mirror the
paper's plotted quantities.  Absolute values differ from the paper (our
substrate is a scaled simulator, DESIGN.md §5); the *shape* — who wins,
roughly by how much, where the crossovers fall — is what each driver
reproduces, and EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig, PriorityMode
from repro.experiments.runner import ExperimentScale, prefetch_variants, run_one
from repro.network.packet import PacketType, packet_census_row
from repro.stats.report import geometric_mean
from repro.workloads.registry import workload_table


@dataclass
class FigureResult:
    """One regenerated figure: labels along x, one list per series."""

    figure_id: str
    title: str
    labels: List[str]
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""

    def series_mean(self, name: str, geometric: bool = False) -> float:
        values = self.series[name]
        if not values:
            return 0.0
        if geometric:
            return geometric_mean(values)
        return sum(values) / len(values)

    def to_table(self, fmt: str = "{:.3f}") -> str:
        """Render as an aligned text table (benchmarks print this)."""
        names = list(self.series)
        width = max([len(lbl) for lbl in self.labels] + [8])
        header = f"{'':{width}s} " + " ".join(f"{n:>12s}" for n in names)
        lines = [f"== {self.figure_id}: {self.title} ==", header]
        for i, label in enumerate(self.labels):
            cells = " ".join(
                f"{fmt.format(self.series[n][i]):>12s}" for n in names
            )
            lines.append(f"{label:{width}s} {cells}")
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)


def _exp(exp: Optional[ExperimentScale]) -> ExperimentScale:
    return exp or ExperimentScale.standard()


#: declare a driver's full point set up front and batch it through the
#: runner (parallel fan-out + caches); the driver's subsequent ``run_one``
#: calls are then pure cache lookups
_prefetch = prefetch_variants


# ---------------------------------------------------------------------------
# Motivation figures (Section 3)
# ---------------------------------------------------------------------------


def fig3_ideal_speedup(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 3: uniform-high-bandwidth 'ideal' vs the non-uniform baseline."""
    exp = _exp(exp)
    labels = exp.workload_names()
    _prefetch(exp, [(None, None), (SystemConfig.ideal(), None)])
    speedups = []
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        ideal = run_one(
            name, system=SystemConfig.ideal(), scale=exp.scale, seed=exp.seed
        )
        speedups.append(ideal.speedup_over(base))
    result = FigureResult(
        "fig3",
        "Ideal (uniform high-BW) speedup over non-uniform baseline",
        labels,
        {"ideal_speedup": speedups},
    )
    result.notes = f"geomean {geometric_mean(speedups):.3f} (paper: ~1.5x average)"
    return result


def fig4_network_utilization(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 4: inter-cluster network utilization, non-uniform vs ideal."""
    exp = _exp(exp)
    labels = exp.workload_names()
    _prefetch(exp, [(None, None), (SystemConfig.ideal(), None)])
    non_uniform, ideal = [], []
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        up = run_one(name, system=SystemConfig.ideal(), scale=exp.scale, seed=exp.seed)
        non_uniform.append(base.inter_utilization())
        ideal.append(up.inter_utilization())
    return FigureResult(
        "fig4",
        "Inter-cluster link utilization",
        labels,
        {"non_uniform": non_uniform, "ideal": ideal},
        notes="non-uniform config runs hot; ideal config is far below saturation",
    )


def fig5_remote_latency(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 5: inter-cluster memory latency, ideal normalized to baseline."""
    exp = _exp(exp)
    labels, base_lat, ideal_norm = [], [], []
    _prefetch(exp, [(None, None), (SystemConfig.ideal(), None)])
    for name in exp.workload_names():
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        up = run_one(name, system=SystemConfig.ideal(), scale=exp.scale, seed=exp.seed)
        if base.mean_inter_read_latency() <= 0:
            continue  # workload issues no inter-cluster reads (e.g. BS)
        labels.append(name)
        base_lat.append(1.0)
        ideal_norm.append(
            up.mean_inter_read_latency() / base.mean_inter_read_latency()
        )
    return FigureResult(
        "fig5",
        "Avg inter-cluster read latency (normalized to non-uniform)",
        labels,
        {"non_uniform": base_lat, "ideal": ideal_norm},
    )


def fig6_flit_occupancy(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 6: fraction of lower-BW-network flits with 25%/75% padding."""
    exp = _exp(exp)
    labels = exp.workload_names()
    pad25, pad75, either = [], [], []
    flit_size = SystemConfig.default().flit_size
    _prefetch(exp, [(None, None)])
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        dist = base.padded_fraction_distribution(flit_size)
        p25 = dist.get(0.25, 0.0)
        p75 = dist.get(0.75, 0.0)
        pad25.append(p25)
        pad75.append(p75)
        either.append(p25 + p75)
    result = FigureResult(
        "fig6",
        "Flits by padded fraction on the inter-cluster network",
        labels,
        {"25%_padded": pad25, "75%_padded": pad75, "either": either},
    )
    nonzero = [v for v in either if v > 0]
    if nonzero:
        result.notes = (
            f"mean(25%+75% padded) = {sum(nonzero)/len(nonzero):.3f} "
            "(paper: ~42% average)"
        )
    return result


def fig7_cacheline_utilization(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 7: inter-cluster reads by bytes the wavefront needs."""
    exp = _exp(exp)
    labels, buckets = [], {16: [], 32: [], 48: [], 64: []}
    _prefetch(exp, [(None, None)])
    for name in exp.workload_names():
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        total = sum(base.stats.read_req_bytes_hist.values())
        if total == 0:
            continue
        labels.append(name)
        for bucket in buckets:
            buckets[bucket].append(
                base.stats.read_req_bytes_hist.get(bucket, 0) / total
            )
    return FigureResult(
        "fig7",
        "Inter-cluster read requests by required bytes",
        labels,
        {f"<= {b}B": vals for b, vals in buckets.items()},
        notes="sparse workloads (GUPS/SPMV/MIS/PR) need <=16B of most lines",
    )


def fig8_ptw_priority(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 8: prioritize read-PTW traffic vs an equal share of data."""
    exp = _exp(exp)
    labels, ptw_prio, data_prio = [], [], []
    ptw_cfg = NetCrafterConfig(priority_mode=PriorityMode.PTW)
    data_cfg = NetCrafterConfig(priority_mode=PriorityMode.DATA_MATCHED)
    _prefetch(exp, [(None, None), (None, ptw_cfg), (None, data_cfg)])
    for name in exp.workload_names():
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        ptw = run_one(name, netcrafter=ptw_cfg, scale=exp.scale, seed=exp.seed)
        data = run_one(name, netcrafter=data_cfg, scale=exp.scale, seed=exp.seed)
        labels.append(name)
        ptw_prio.append(ptw.speedup_over(base))
        data_prio.append(data.speedup_over(base))
    return FigureResult(
        "fig8",
        "Speedup from prioritizing PTW vs matched-fraction data traffic",
        labels,
        {"prioritize_ptw": ptw_prio, "prioritize_data": data_prio},
        notes="PTW priority helps; data priority does not (Observation 3)",
    )


def fig9_ptw_fraction(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 9: PTW-related share of inter-cluster traffic."""
    exp = _exp(exp)
    labels, ptw_frac, data_frac = [], [], []
    _prefetch(exp, [(None, None)])
    for name in exp.workload_names():
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        if base.ptw_bytes + base.data_bytes == 0:
            continue
        labels.append(name)
        frac = base.ptw_traffic_fraction()
        ptw_frac.append(frac)
        data_frac.append(1.0 - frac)
    result = FigureResult(
        "fig9",
        "PTW vs data share of inter-cluster bytes",
        labels,
        {"ptw": ptw_frac, "data": data_frac},
    )
    if ptw_frac:
        result.notes = (
            f"mean PTW share {sum(ptw_frac)/len(ptw_frac):.3f} (paper: ~13%)"
        )
    return result


# ---------------------------------------------------------------------------
# Design figures (Section 4)
# ---------------------------------------------------------------------------


def fig12_stitch_rate(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 12: % flits stitched, before vs after Flit Pooling."""
    exp = _exp(exp)
    labels, no_pool, with_pool = [], [], []
    cfg_np = NetCrafterConfig.stitching_only()
    cfg_fp = NetCrafterConfig.stitching_with_selective_pooling(32)
    _prefetch(exp, [(None, cfg_np), (None, cfg_fp)])
    for name in exp.workload_names():
        a = run_one(name, netcrafter=cfg_np, scale=exp.scale, seed=exp.seed)
        b = run_one(name, netcrafter=cfg_fp, scale=exp.scale, seed=exp.seed)
        labels.append(name)
        no_pool.append(a.stitch_rate())
        with_pool.append(b.stitch_rate())
    return FigureResult(
        "fig12",
        "Fraction of flits stitched (without vs with Flit Pooling)",
        labels,
        {"stitching": no_pool, "stitching+pooling": with_pool},
        notes="pooling raises the stitch rate by waiting for candidates",
    )


# ---------------------------------------------------------------------------
# Evaluation figures (Section 5)
# ---------------------------------------------------------------------------

#: the Figure 14 bars, in the paper's cumulative order
FIG14_CONFIGS = {
    "stitching": NetCrafterConfig.stitching_with_selective_pooling(32),
    "+trimming": NetCrafterConfig.stitch_trim(32),
    "+sequencing": NetCrafterConfig.full(32),
}


def fig14_overall_speedup(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 14: the headline result, plus the sector-cache comparison."""
    exp = _exp(exp)
    labels = exp.workload_names()
    series: Dict[str, List[float]] = {k: [] for k in FIG14_CONFIGS}
    series["sector_cache_16B"] = []
    _prefetch(
        exp,
        [(None, None), (SystemConfig.sector_cache_baseline(), None)]
        + [(None, cfg) for cfg in FIG14_CONFIGS.values()],
    )
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        for key, cfg in FIG14_CONFIGS.items():
            out = run_one(name, netcrafter=cfg, scale=exp.scale, seed=exp.seed)
            series[key].append(out.speedup_over(base))
        sector = run_one(
            name,
            system=SystemConfig.sector_cache_baseline(),
            scale=exp.scale,
            seed=exp.seed,
        )
        series["sector_cache_16B"].append(sector.speedup_over(base))
    result = FigureResult(
        "fig14", "Overall speedup over the non-uniform baseline", labels, series
    )
    full = series["+sequencing"]
    result.notes = (
        f"NetCrafter geomean {geometric_mean(full):.3f}, max {max(full):.3f} "
        "(paper: avg 1.16x, max 1.64x)"
    )
    return result


def fig15_netcrafter_latency(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 15: inter-cluster read latency, NetCrafter vs baseline."""
    exp = _exp(exp)
    labels, base_norm, crafted = [], [], []
    cfg = NetCrafterConfig.full(32)
    _prefetch(exp, [(None, None), (None, cfg)])
    for name in exp.workload_names():
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        out = run_one(name, netcrafter=cfg, scale=exp.scale, seed=exp.seed)
        if base.mean_inter_read_latency() <= 0:
            continue
        labels.append(name)
        base_norm.append(1.0)
        crafted.append(
            out.mean_inter_read_latency() / base.mean_inter_read_latency()
        )
    return FigureResult(
        "fig15",
        "Avg inter-cluster read latency (normalized to baseline)",
        labels,
        {"baseline": base_norm, "netcrafter": crafted},
    )


def fig16_l1_mpki(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 16: L1 MPKI — NetCrafter Trimming vs a 16B sector cache."""
    exp = _exp(exp)
    labels = exp.workload_names()
    baseline, trimming, sector = [], [], []
    trim_cfg = NetCrafterConfig.trimming_only()
    sector_sys = SystemConfig.sector_cache_baseline()
    _prefetch(exp, [(None, None), (None, trim_cfg), (sector_sys, None)])
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        trim = run_one(name, netcrafter=trim_cfg, scale=exp.scale, seed=exp.seed)
        sect = run_one(name, system=sector_sys, scale=exp.scale, seed=exp.seed)
        baseline.append(base.stats.l1_mpki())
        trimming.append(trim.stats.l1_mpki())
        sector.append(sect.stats.l1_mpki())
    return FigureResult(
        "fig16",
        "L1 MPKI: baseline vs Trimming vs 16B sector cache",
        labels,
        {"baseline": baseline, "trimming": trimming, "sector_16B": sector},
        notes="sector cache raises MPKI everywhere; Trimming only touches "
        "inter-cluster fills",
    )


def fig17_trim_granularity(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 17: GEMM MPKI vs trimming/sector granularity (4/8/16 B)."""
    exp = _exp(exp)
    granularities = [4, 8, 16]
    trim_mpki, all_trim_mpki = [], []
    _prefetch(
        exp,
        [
            variant
            for g in granularities
            for variant in (
                (
                    SystemConfig.default().with_overrides(l1_sector_bytes=g),
                    NetCrafterConfig.trimming_only().with_overrides(
                        trim_sector_bytes=g, trim_threshold_bytes=g
                    ),
                ),
                (SystemConfig.sector_cache_baseline(sector_bytes=g), None),
            )
        ],
        workloads=["gemm_large"],
    )
    for g in granularities:
        sys_g = SystemConfig.default().with_overrides(l1_sector_bytes=g)
        trim_cfg = NetCrafterConfig.trimming_only().with_overrides(
            trim_sector_bytes=g, trim_threshold_bytes=g
        )
        trim = run_one(
            "gemm_large", system=sys_g, netcrafter=trim_cfg,
            scale=exp.scale, seed=exp.seed,
        )
        all_trim = run_one(
            "gemm_large",
            system=SystemConfig.sector_cache_baseline(sector_bytes=g),
            scale=exp.scale,
            seed=exp.seed,
        )
        trim_mpki.append(trim.stats.l1_mpki())
        all_trim_mpki.append(all_trim.stats.l1_mpki())
    return FigureResult(
        "fig17",
        "Large-GEMM L1 MPKI vs trim granularity",
        [f"{g}B" for g in granularities],
        {"trimming": trim_mpki, "all_trimming": all_trim_mpki},
        notes="selective Trimming stays below the all-trimming sector design",
    )


def _pooling_sweep(
    exp: ExperimentScale, selective: bool, windows: Sequence[int]
) -> FigureResult:
    labels = exp.workload_names()
    series: Dict[str, List[float]] = {"stitching": []}
    for window in windows:
        series[f"pool_{window}"] = []
    make = (
        NetCrafterConfig.stitching_with_selective_pooling
        if selective
        else NetCrafterConfig.stitching_with_pooling
    )
    _prefetch(
        exp,
        [(None, None), (None, NetCrafterConfig.stitching_only())]
        + [(None, make(window)) for window in windows],
    )
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        st = run_one(
            name, netcrafter=NetCrafterConfig.stitching_only(),
            scale=exp.scale, seed=exp.seed,
        )
        series["stitching"].append(st.speedup_over(base))
        for window in windows:
            out = run_one(
                name, netcrafter=make(window), scale=exp.scale, seed=exp.seed
            )
            series[f"pool_{window}"].append(out.speedup_over(base))
    kind = "Selective Flit Pooling" if selective else "Flit Pooling"
    fig = "fig19" if selective else "fig18"
    return FigureResult(
        fig,
        f"Stitching with {kind}, window sweep",
        labels,
        series,
        notes="paper picks 32 cycles as the sweet spot",
    )


def fig18_pooling_sweep(
    exp: Optional[ExperimentScale] = None, windows: Sequence[int] = (32, 64, 96, 128)
) -> FigureResult:
    """Figure 18: Stitching + plain Flit Pooling across window sizes."""
    return _pooling_sweep(_exp(exp), selective=False, windows=windows)


def fig19_selective_pooling_sweep(
    exp: Optional[ExperimentScale] = None, windows: Sequence[int] = (32, 64, 96, 128)
) -> FigureResult:
    """Figure 19: Stitching + Selective Flit Pooling across window sizes."""
    return _pooling_sweep(_exp(exp), selective=True, windows=windows)


def fig20_byte_reduction(
    exp: Optional[ExperimentScale] = None, windows: Sequence[int] = (32, 64, 96, 128)
) -> FigureResult:
    """Figure 20: inter-cluster wire bytes saved by stitching (+SFP)."""
    exp = _exp(exp)
    labels = exp.workload_names()
    series: Dict[str, List[float]] = {"stitching": []}
    for window in windows:
        series[f"sfp_{window}"] = []
    _prefetch(
        exp,
        [(None, None), (None, NetCrafterConfig.stitching_only())]
        + [
            (None, NetCrafterConfig.stitching_with_selective_pooling(window))
            for window in windows
        ],
    )
    for name in labels:
        base = run_one(name, scale=exp.scale, seed=exp.seed)
        st = run_one(
            name, netcrafter=NetCrafterConfig.stitching_only(),
            scale=exp.scale, seed=exp.seed,
        )
        series["stitching"].append(_byte_reduction(base, st))
        for window in windows:
            out = run_one(
                name,
                netcrafter=NetCrafterConfig.stitching_with_selective_pooling(window),
                scale=exp.scale,
                seed=exp.seed,
            )
            series[f"sfp_{window}"].append(_byte_reduction(base, out))
    return FigureResult(
        "fig20",
        "Reduction in inter-cluster network bytes",
        labels,
        series,
        notes="savings grow with the pooling window, then flatten",
    )


def _byte_reduction(base, out) -> float:
    if base.inter_wire_bytes == 0:
        return 0.0
    return 1.0 - out.inter_wire_bytes / base.inter_wire_bytes


def fig21_flit_size(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 21: Stitching+SFP speedup at 8 B vs 16 B flits."""
    exp = _exp(exp)
    labels = exp.workload_names()
    series: Dict[str, List[float]] = {"flit_16B": [], "flit_8B": []}
    cfg = NetCrafterConfig.stitching_with_selective_pooling(32)
    _prefetch(
        exp,
        [
            variant
            for flit_size in (16, 8)
            for variant in (
                (SystemConfig.default().with_overrides(flit_size=flit_size), None),
                (SystemConfig.default().with_overrides(flit_size=flit_size), cfg),
            )
        ],
    )
    for name in labels:
        for key, flit_size in (("flit_16B", 16), ("flit_8B", 8)):
            sys_f = SystemConfig.default().with_overrides(flit_size=flit_size)
            base = run_one(name, system=sys_f, scale=exp.scale, seed=exp.seed)
            out = run_one(
                name, system=sys_f, netcrafter=cfg, scale=exp.scale, seed=exp.seed
            )
            series[key].append(out.speedup_over(base))
    return FigureResult(
        "fig21",
        "Stitching+SFP speedup at 16B vs 8B flit size",
        labels,
        series,
        notes="smaller flits leave less padding, shrinking stitching's headroom",
    )


#: Figure 22 bandwidth configurations: (intra, inter) bytes/cycle
FIG22_BANDWIDTHS = [
    (128.0, 16.0),
    (128.0, 32.0),
    (128.0, 64.0),
    (256.0, 32.0),
    (512.0, 64.0),
    (32.0, 32.0),  # homogeneous
]


def fig22_bandwidth_sweep(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 22: NetCrafter speedup across bandwidth ratios and values."""
    exp = _exp(exp)
    cfg = NetCrafterConfig.full(32)
    labels = [f"{int(intra)}:{int(inter)}" for intra, inter in FIG22_BANDWIDTHS]
    speedups: List[float] = []
    _prefetch(
        exp,
        [
            variant
            for intra, inter in FIG22_BANDWIDTHS
            for variant in (
                (
                    SystemConfig.default().with_overrides(
                        intra_cluster_bw=intra, inter_cluster_bw=inter
                    ),
                    None,
                ),
                (
                    SystemConfig.default().with_overrides(
                        intra_cluster_bw=intra, inter_cluster_bw=inter
                    ),
                    cfg,
                ),
            )
        ],
    )
    for intra, inter in FIG22_BANDWIDTHS:
        sys_b = SystemConfig.default().with_overrides(
            intra_cluster_bw=intra, inter_cluster_bw=inter
        )
        per_workload = []
        for name in exp.workload_names():
            base = run_one(name, system=sys_b, scale=exp.scale, seed=exp.seed)
            out = run_one(
                name, system=sys_b, netcrafter=cfg, scale=exp.scale, seed=exp.seed
            )
            per_workload.append(out.speedup_over(base))
        speedups.append(geometric_mean(per_workload))
    return FigureResult(
        "fig22",
        "NetCrafter geomean speedup across bandwidth configurations",
        labels,
        {"netcrafter": speedups},
        notes="gains persist at every ratio; largest when most constrained",
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_flit_census(flit_size: int = 16) -> List[Dict[str, int]]:
    """Table 1: per-type flit census, derived from the packet layouts."""
    order = [
        PacketType.READ_REQ,
        PacketType.WRITE_REQ,
        PacketType.PT_REQ,
        PacketType.READ_RSP,
        PacketType.WRITE_RSP,
        PacketType.PT_RSP,
    ]
    rows = []
    for ptype in order:
        row = {"request_type": ptype.value}
        row.update(packet_census_row(ptype, flit_size))
        rows.append(row)
    return rows


def table2_configuration(config: Optional[SystemConfig] = None) -> Dict[str, str]:
    """Table 2: the simulated configuration, rendered as parameter rows."""
    cfg = config or SystemConfig.default()
    return {
        "Compute Units": f"{cfg.cus_per_gpu} per GPU, {cfg.max_wavefronts_per_cu} wavefronts/CU",
        "L1 Cache": f"{cfg.l1_size // 1024}KB write-through, {cfg.l1_latency} cycle, {cfg.l1_mshr_entries}-entry MSHR",
        "L1 TLB": f"{cfg.l1_tlb_entries} entry, {cfg.l1_tlb_latency} cycle",
        "L2 TLB": f"{cfg.l2_tlb_entries} entry, {cfg.l2_tlb_assoc} way, {cfg.l2_tlb_latency} cycle",
        "L2 Cache": f"{cfg.l2_size // (1024*1024)}MB/GPU, {cfg.l2_banks} banks, {cfg.l2_ways} way, {cfg.l2_latency} cycle, write-back",
        "DRAM": f"{cfg.dram_bytes_per_cycle:.0f} B/cycle, {cfg.dram_latency} cycle latency",
        "Page Table Walk": f"{cfg.n_walkers} shared walkers per GPU",
        "Page Walk Cache": f"{cfg.pwc_entries} entry, {cfg.pwc_latency} cycle",
        "Interconnect": (
            f"inter-cluster {cfg.inter_cluster_bw:.0f} GB/s, "
            f"intra-cluster {cfg.intra_cluster_bw:.0f} GB/s, bi-directional"
        ),
        "Network Switch": f"{cfg.switch_latency} cycle pipeline, {cfg.switch_buffer_entries}-entry buffers",
        "Flit Size": f"{cfg.flit_size} B",
        "CTA/Page Scheduling": "LASP with PTE co-placement",
    }


def table3_workloads() -> List[Dict[str, str]]:
    """Table 3: the evaluated applications."""
    return workload_table()
