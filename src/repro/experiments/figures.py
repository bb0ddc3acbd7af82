"""The paper's figures as data.

Each figure of the paper's evaluation is a :class:`Figure`: its points
are ``workloads x arms`` — an arm names one configuration as campaign
point keys (:func:`arm`) — and a reducer turns the points' results into
a :class:`FigureResult` whose series mirror the paper's plotted
quantities.  :data:`repro.experiments.registry.FIGURES` lists every
figure, and :func:`repro.experiments.registry.run_figure` runs any of
them as one campaign.  Absolute values differ from the paper (our
substrate is a scaled simulator, DESIGN.md §5); the *shape* — who wins,
roughly by how much, where the crossovers fall — is what each figure
reproduces, and EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig, PriorityMode
from repro.experiments.runner import ExperimentScale
from repro.network.packet import PacketType, packet_census_row
from repro.stats.report import RunResult, geometric_mean
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


#: one configuration's campaign point keys, and a figure's arms by name
Arm = Dict[str, object]
Arms = Dict[str, Arm]
#: a figure's point: (workload, arm name)
Cell = Tuple[str, str]


def _json_value(value):
    """``value`` as JSON data: enums by value, tuples and records as lists."""
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        value = astuple(value)
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value


def as_overrides(config) -> Dict[str, object]:
    """The fields of a config dataclass that differ from its defaults, as
    JSON data (a nested config as its own overrides).

    A field counts as default only when its value *and* type match, since
    ``1`` and ``1.0`` fingerprint differently.
    """
    default = type(config)()
    overrides: Dict[str, object] = {}
    for f in fields(config):
        value, base = getattr(config, f.name), getattr(default, f.name)
        if type(value) is type(base) and value == base:
            continue
        overrides[f.name] = (
            as_overrides(value) if is_dataclass(value) else _json_value(value)
        )
    return overrides


def arm(
    system: Optional[SystemConfig] = None,
    netcrafter: Optional[NetCrafterConfig] = None,
) -> Arm:
    """The campaign point keys (``variant``, ``system``, ``faults``) of one
    configuration, holding only its non-default fields, so the Python
    presets stay the one definition of each configuration."""
    keys: Arm = {}
    variant = as_overrides(netcrafter) if netcrafter is not None else {}
    if variant:
        keys["variant"] = variant
    overrides = as_overrides(system) if system is not None else {}
    faults = overrides.pop("faults", None)
    if overrides:
        keys["system"] = overrides
    if faults:
        keys["faults"] = faults
    return keys


@dataclass
class Table:
    """A figure's results: ``table[workload, arm]`` is one declared cell's.

    Looking up a cell the figure did not declare raises ``KeyError``
    naming it, so a reducer can never run a point on its own.
    """

    exp: ExperimentScale
    #: the figure's workloads, in row order
    workloads: List[str]
    results: Dict[Cell, RunResult]

    def __getitem__(self, cell: Cell) -> RunResult:
        try:
            return self.results[cell]
        except KeyError:
            workload, name = cell
            raise KeyError(f"{workload}/{name} is not a declared point") from None


@dataclass(frozen=True)
class Figure:
    """One figure: its points as ``workloads x arms`` campaign data, and the
    reducer that reads their results.

    ``arms(**params)`` maps arm names to :func:`arm` keys;
    ``reduce(table, **params)`` builds the :class:`FigureResult` from a
    :class:`Table` alone.  ``params`` are the figure's sweep knobs (pooling
    windows, chaos options), passed to both.
    """

    arms: Callable[..., Arms]
    reduce: Callable[..., FigureResult]
    workloads: Callable[[ExperimentScale], List[str]] = ExperimentScale.workload_names


#: the arms most figures share
BASE = arm()
IDEAL = arm(SystemConfig.ideal())
SECTOR = arm(SystemConfig.sector_cache_baseline())


def speedups(table: Table, arm_name: str, base: str = "base") -> List[float]:
    """Per-workload speedup of ``arm_name`` over ``base``."""
    return [
        table[name, arm_name].speedup_over(table[name, base])
        for name in table.workloads
    ]


# ---------------------------------------------------------------------------
# Motivation figures (Section 3)
# ---------------------------------------------------------------------------


def _ideal_arms() -> Arms:
    return {"base": BASE, "ideal": IDEAL}


def _base_arms() -> Arms:
    return {"base": BASE}


def _fig3(table: Table) -> FigureResult:
    """Figure 3: uniform-high-bandwidth 'ideal' vs the non-uniform baseline."""
    ideal = speedups(table, "ideal")
    result = FigureResult(
        "fig3",
        "Ideal (uniform high-BW) speedup over non-uniform baseline",
        table.workloads,
        {"ideal_speedup": ideal},
    )
    result.notes = f"geomean {geometric_mean(ideal):.3f} (paper: ~1.5x average)"
    return result


def _fig4(table: Table) -> FigureResult:
    """Figure 4: inter-cluster network utilization, non-uniform vs ideal."""
    return FigureResult(
        "fig4",
        "Inter-cluster link utilization",
        table.workloads,
        {
            "non_uniform": [
                table[name, "base"].inter_utilization() for name in table.workloads
            ],
            "ideal": [
                table[name, "ideal"].inter_utilization() for name in table.workloads
            ],
        },
        notes="non-uniform config runs hot; ideal config is far below saturation",
    )


def _fig5(table: Table) -> FigureResult:
    """Figure 5: inter-cluster memory latency, ideal normalized to baseline."""
    labels, base_lat, ideal_norm = [], [], []
    for name in table.workloads:
        base, up = table[name, "base"], table[name, "ideal"]
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


def _fig6(table: Table) -> FigureResult:
    """Figure 6: fraction of lower-BW-network flits with 25%/75% padding."""
    pad25, pad75, either = [], [], []
    flit_size = SystemConfig.default().flit_size
    for name in table.workloads:
        dist = table[name, "base"].padded_fraction_distribution(flit_size)
        p25 = dist.get(0.25, 0.0)
        p75 = dist.get(0.75, 0.0)
        pad25.append(p25)
        pad75.append(p75)
        either.append(p25 + p75)
    result = FigureResult(
        "fig6",
        "Flits by padded fraction on the inter-cluster network",
        table.workloads,
        {"25%_padded": pad25, "75%_padded": pad75, "either": either},
    )
    nonzero = [v for v in either if v > 0]
    if nonzero:
        result.notes = (
            f"mean(25%+75% padded) = {sum(nonzero)/len(nonzero):.3f} "
            "(paper: ~42% average)"
        )
    return result


def _fig7(table: Table) -> FigureResult:
    """Figure 7: inter-cluster reads by bytes the wavefront needs."""
    labels, buckets = [], {16: [], 32: [], 48: [], 64: []}
    for name in table.workloads:
        hist = table[name, "base"].stats.read_req_bytes_hist
        total = sum(hist.values())
        if total == 0:
            continue
        labels.append(name)
        for bucket in buckets:
            buckets[bucket].append(hist.get(bucket, 0) / total)
    return FigureResult(
        "fig7",
        "Inter-cluster read requests by required bytes",
        labels,
        {f"<= {b}B": vals for b, vals in buckets.items()},
        notes="sparse workloads (GUPS/SPMV/MIS/PR) need <=16B of most lines",
    )


def _fig8_arms() -> Arms:
    """Figure 8: prioritize read-PTW traffic vs an equal share of data."""
    return {
        "base": BASE,
        "ptw": arm(netcrafter=NetCrafterConfig(priority_mode=PriorityMode.PTW)),
        "data": arm(
            netcrafter=NetCrafterConfig(priority_mode=PriorityMode.DATA_MATCHED)
        ),
    }


def _fig8(table: Table) -> FigureResult:
    return FigureResult(
        "fig8",
        "Speedup from prioritizing PTW vs matched-fraction data traffic",
        table.workloads,
        {
            "prioritize_ptw": speedups(table, "ptw"),
            "prioritize_data": speedups(table, "data"),
        },
        notes="PTW priority helps; data priority does not (Observation 3)",
    )


def _fig9(table: Table) -> FigureResult:
    """Figure 9: PTW-related share of inter-cluster traffic."""
    labels, ptw_frac, data_frac = [], [], []
    for name in table.workloads:
        base = table[name, "base"]
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


def _fig12_arms() -> Arms:
    """Figure 12: % flits stitched, before vs after Flit Pooling."""
    return {
        "stitching": arm(netcrafter=NetCrafterConfig.stitching_only()),
        "pooling": arm(
            netcrafter=NetCrafterConfig.stitching_with_selective_pooling(32)
        ),
    }


def _fig12(table: Table) -> FigureResult:
    return FigureResult(
        "fig12",
        "Fraction of flits stitched (without vs with Flit Pooling)",
        table.workloads,
        {
            "stitching": [
                table[name, "stitching"].stitch_rate() for name in table.workloads
            ],
            "stitching+pooling": [
                table[name, "pooling"].stitch_rate() for name in table.workloads
            ],
        },
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


def _fig14_arms() -> Arms:
    """Figure 14: the headline result, plus the sector-cache comparison."""
    return {
        "base": BASE,
        "sector_cache_16B": SECTOR,
        **{key: arm(netcrafter=cfg) for key, cfg in FIG14_CONFIGS.items()},
    }


def _fig14(table: Table) -> FigureResult:
    series = {key: speedups(table, key) for key in FIG14_CONFIGS}
    series["sector_cache_16B"] = speedups(table, "sector_cache_16B")
    result = FigureResult(
        "fig14", "Overall speedup over the non-uniform baseline", table.workloads, series
    )
    full = series["+sequencing"]
    result.notes = (
        f"NetCrafter geomean {geometric_mean(full):.3f}, max {max(full):.3f} "
        "(paper: avg 1.16x, max 1.64x)"
    )
    return result


def _fig15_arms() -> Arms:
    """Figure 15: inter-cluster read latency, NetCrafter vs baseline."""
    return {"base": BASE, "netcrafter": arm(netcrafter=NetCrafterConfig.full(32))}


def _fig15(table: Table) -> FigureResult:
    labels, base_norm, crafted = [], [], []
    for name in table.workloads:
        base, out = table[name, "base"], table[name, "netcrafter"]
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


def _fig16_arms() -> Arms:
    """Figure 16: L1 MPKI — NetCrafter Trimming vs a 16B sector cache."""
    return {
        "baseline": BASE,
        "trimming": arm(netcrafter=NetCrafterConfig.trimming_only()),
        "sector_16B": SECTOR,
    }


def _fig16(table: Table) -> FigureResult:
    return FigureResult(
        "fig16",
        "L1 MPKI: baseline vs Trimming vs 16B sector cache",
        table.workloads,
        {
            key: [table[name, key].stats.l1_mpki() for name in table.workloads]
            for key in ("baseline", "trimming", "sector_16B")
        },
        notes="sector cache raises MPKI everywhere; Trimming only touches "
        "inter-cluster fills",
    )


#: Figure 17's trimming/sector granularities, bytes
FIG17_GRANULARITIES = (4, 8, 16)


def _fig17_arms() -> Arms:
    """Figure 17: GEMM MPKI vs trimming/sector granularity (4/8/16 B)."""
    arms: Arms = {}
    for g in FIG17_GRANULARITIES:
        arms[f"trimming_{g}"] = arm(
            SystemConfig.default().with_overrides(l1_sector_bytes=g),
            NetCrafterConfig.trimming_only().with_overrides(
                trim_sector_bytes=g, trim_threshold_bytes=g
            ),
        )
        arms[f"all_trimming_{g}"] = arm(
            SystemConfig.sector_cache_baseline(sector_bytes=g)
        )
    return arms


def _fig17(table: Table) -> FigureResult:
    (name,) = table.workloads
    return FigureResult(
        "fig17",
        "Large-GEMM L1 MPKI vs trim granularity",
        [f"{g}B" for g in FIG17_GRANULARITIES],
        {
            key: [
                table[name, f"{key}_{g}"].stats.l1_mpki()
                for g in FIG17_GRANULARITIES
            ]
            for key in ("trimming", "all_trimming")
        },
        notes="selective Trimming stays below the all-trimming sector design",
    )


#: the pooling windows Figures 18-20 sweep, cycles
POOLING_WINDOWS = (32, 64, 96, 128)


def _pooling_arms(
    selective: bool, prefix: str, windows: Sequence[int] = POOLING_WINDOWS
) -> Arms:
    make = (
        NetCrafterConfig.stitching_with_selective_pooling
        if selective
        else NetCrafterConfig.stitching_with_pooling
    )
    return {
        "base": BASE,
        "stitching": arm(netcrafter=NetCrafterConfig.stitching_only()),
        **{f"{prefix}_{w}": arm(netcrafter=make(w)) for w in windows},
    }


def _pooling_sweep(
    table: Table, selective: bool, windows: Sequence[int] = POOLING_WINDOWS
) -> FigureResult:
    """Figures 18/19: Stitching + (Selective) Flit Pooling across windows."""
    series = {"stitching": speedups(table, "stitching")}
    for window in windows:
        series[f"pool_{window}"] = speedups(table, f"pool_{window}")
    kind = "Selective Flit Pooling" if selective else "Flit Pooling"
    return FigureResult(
        "fig19" if selective else "fig18",
        f"Stitching with {kind}, window sweep",
        table.workloads,
        series,
        notes="paper picks 32 cycles as the sweet spot",
    )


def _byte_reduction(base: RunResult, out: RunResult) -> float:
    if base.inter_wire_bytes == 0:
        return 0.0
    return 1.0 - out.inter_wire_bytes / base.inter_wire_bytes


def _fig20(table: Table, windows: Sequence[int] = POOLING_WINDOWS) -> FigureResult:
    """Figure 20: inter-cluster wire bytes saved by stitching (+SFP)."""
    series = {
        key: [
            _byte_reduction(table[name, "base"], table[name, key])
            for name in table.workloads
        ]
        for key in ["stitching"] + [f"sfp_{w}" for w in windows]
    }
    return FigureResult(
        "fig20",
        "Reduction in inter-cluster network bytes",
        table.workloads,
        series,
        notes="savings grow with the pooling window, then flatten",
    )


#: Figure 21's flit sizes, bytes, in column order
FIG21_FLIT_SIZES = (16, 8)


def _fig21_arms() -> Arms:
    """Figure 21: Stitching+SFP speedup at 8 B vs 16 B flits."""
    sfp = NetCrafterConfig.stitching_with_selective_pooling(32)
    arms: Arms = {}
    for flit_size in FIG21_FLIT_SIZES:
        system = SystemConfig.default().with_overrides(flit_size=flit_size)
        arms[f"base_{flit_size}B"] = arm(system)
        arms[f"flit_{flit_size}B"] = arm(system, sfp)
    return arms


def _fig21(table: Table) -> FigureResult:
    return FigureResult(
        "fig21",
        "Stitching+SFP speedup at 16B vs 8B flit size",
        table.workloads,
        {
            f"flit_{f}B": speedups(table, f"flit_{f}B", f"base_{f}B")
            for f in FIG21_FLIT_SIZES
        },
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


def _fig22_label(intra: float, inter: float) -> str:
    return f"{int(intra)}:{int(inter)}"


def _fig22_arms() -> Arms:
    """Figure 22: NetCrafter speedup across bandwidth ratios and values."""
    arms: Arms = {}
    for intra, inter in FIG22_BANDWIDTHS:
        system = SystemConfig.default().with_overrides(
            intra_cluster_bw=intra, inter_cluster_bw=inter
        )
        label = _fig22_label(intra, inter)
        arms[f"base@{label}"] = arm(system)
        arms[f"nc@{label}"] = arm(system, NetCrafterConfig.full(32))
    return arms


def _fig22(table: Table) -> FigureResult:
    labels = [_fig22_label(intra, inter) for intra, inter in FIG22_BANDWIDTHS]
    return FigureResult(
        "fig22",
        "NetCrafter geomean speedup across bandwidth configurations",
        labels,
        {
            "netcrafter": [
                geometric_mean(speedups(table, f"nc@{label}", f"base@{label}"))
                for label in labels
            ]
        },
        notes="gains persist at every ratio; largest when most constrained",
    )


FIG3 = Figure(_ideal_arms, _fig3)
FIG4 = Figure(_ideal_arms, _fig4)
FIG5 = Figure(_ideal_arms, _fig5)
FIG6 = Figure(_base_arms, _fig6)
FIG7 = Figure(_base_arms, _fig7)
FIG8 = Figure(_fig8_arms, _fig8)
FIG9 = Figure(_base_arms, _fig9)
FIG12 = Figure(_fig12_arms, _fig12)
FIG14 = Figure(_fig14_arms, _fig14)
FIG15 = Figure(_fig15_arms, _fig15)
FIG16 = Figure(_fig16_arms, _fig16)
FIG17 = Figure(_fig17_arms, _fig17, workloads=lambda exp: ["gemm_large"])
FIG18 = Figure(
    partial(_pooling_arms, False, "pool"), partial(_pooling_sweep, selective=False)
)
FIG19 = Figure(
    partial(_pooling_arms, True, "pool"), partial(_pooling_sweep, selective=True)
)
FIG20 = Figure(partial(_pooling_arms, True, "sfp"), _fig20)
FIG21 = Figure(_fig21_arms, _fig21)
FIG22 = Figure(_fig22_arms, _fig22)


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
