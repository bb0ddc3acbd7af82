"""Chaos runs: does NetCrafter still help on an unreliable fabric?

Sweeps the inter-cluster bit-error rate (optionally with a drop rate
and bandwidth-flap windows, via :class:`ChaosOptions`) over the
{baseline, full-NetCrafter} pair and reports, per BER point, each
variant's cycles, the NetCrafter speedup, goodput as a fraction of raw
wire throughput, and the fault/recovery counters.  The question the
sweep answers — recorded in EXPERIMENTS.md — is whether stitching and
trimming remain wins when flits can be corrupted in flight: stitching
concentrates more useful bytes per wire flit, so a lost flit costs
more, but it also sends *fewer* flits through the bit-error process.

Deterministic like every other figure: the fault processes draw from a
counter-based RNG keyed on packet content, so each (workload, config,
seed) point is cache-correct and shard-mode independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.figures import Arms, Figure, FigureResult, Table, arm
from repro.faults.config import FaultConfig, FlapWindow


@dataclass(frozen=True)
class ChaosOptions:
    """Sweep shape, settable from the CLI (``--fault-*`` flags)."""

    bers: Tuple[float, ...] = (0.0, 2e-5, 1e-4, 5e-4)
    drop_rate: float = 0.0
    flaps: Tuple[FlapWindow, ...] = ()
    seed: int = 1


def _fault_system(ber: float, opts: ChaosOptions) -> SystemConfig:
    return SystemConfig.default().with_overrides(
        faults=FaultConfig(
            ber=ber,
            drop_rate=opts.drop_rate,
            flaps=opts.flaps,
            seed=opts.seed,
        )
    )


def _label(ber: float) -> str:
    return f"ber={ber:g}"


def _arms(opts: Optional[ChaosOptions] = None) -> Arms:
    """{baseline, full NetCrafter} at every BER point of ``opts`` (the
    default :class:`ChaosOptions` when omitted)."""
    opts = opts or ChaosOptions()
    arms: Arms = {}
    for ber in opts.bers:
        system = _fault_system(ber, opts)
        arms[f"base@{_label(ber)}"] = arm(system)
        arms[f"nc@{_label(ber)}"] = arm(system, NetCrafterConfig.full())
    return arms


def _reduce(table: Table, opts: Optional[ChaosOptions] = None) -> FigureResult:
    """BER sweep x {baseline, NetCrafter} on the first workload."""
    opts = opts or ChaosOptions()
    (workload,) = table.workloads
    labels = [_label(ber) for ber in opts.bers]
    series = {
        "base_cycles": [],
        "nc_cycles": [],
        "nc_speedup": [],
        "base_goodput": [],
        "nc_goodput": [],
        "nc_corrupted": [],
        "nc_retransmit": [],
        "nc_recovery_p50": [],
    }
    for label in labels:
        base = table[workload, f"base@{label}"]
        full = table[workload, f"nc@{label}"]
        faults = full.stats.faults
        series["base_cycles"].append(float(base.cycles))
        series["nc_cycles"].append(float(full.cycles))
        series["nc_speedup"].append(full.speedup_over(base))
        series["base_goodput"].append(base.goodput_ratio())
        series["nc_goodput"].append(full.goodput_ratio())
        series["nc_corrupted"].append(
            float(faults.flits_corrupted) if faults is not None else 0.0
        )
        series["nc_retransmit"].append(
            float(faults.flits_retransmitted) if faults is not None else 0.0
        )
        series["nc_recovery_p50"].append(
            faults.recovery_latency.percentile(50) if faults is not None else 0.0
        )

    clean_speedup = series["nc_speedup"][0]
    worst_speedup = min(series["nc_speedup"])
    result = FigureResult(
        "chaos",
        f"NetCrafter under fault injection ({workload}, "
        f"drop={opts.drop_rate:g}, flaps={len(opts.flaps)}, seed={opts.seed})",
        labels,
        series,
    )
    result.notes = (
        f"speedup {clean_speedup:.3f} fault-free -> {worst_speedup:.3f} at the "
        "worst BER point; stitching/trimming "
        + ("still win" if worst_speedup > 1.0 else "stop paying off")
        + " on this unreliable fabric"
    )
    return result


CHAOS = Figure(_arms, _reduce, workloads=lambda exp: exp.workload_names()[:1])
