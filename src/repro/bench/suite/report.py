"""Run outcomes, metric declarations and the JSON report.

Metric names, units, directions and bounds are declared once, in the
repository's ``BENCHMARK.json``; a run computes values by name and the
report takes every unit from the declaration, so an undeclared or
missing metric is an error rather than a silently absent number.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.bench.suite.spans import SpanRecorder

#: the repository root (``src/repro/bench/suite`` -> four levels up)
REPO_ROOT = Path(__file__).resolve().parents[4]


def load_declaration() -> Dict[str, object]:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@dataclass
class RunOutcome:
    """What one workload run measured and what it found wrong.

    ``operations`` holds one id per timed operation (a simulated point,
    or a point fetched from the server), repeats included; an operation
    failed when its id is among ``failed_ids``.  A failure found outside
    the timed operations (a leftover process, a bad warm-up) names no
    id but still makes the run incorrect.
    """

    operations: List[str] = field(default_factory=list)
    failed_ids: Set[str] = field(default_factory=set)
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: what the run executed, for the report (point labels or campaigns)
    points: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    #: the time metrics in unscaled host seconds, for the report
    host_values: Dict[str, float] = field(default_factory=dict)
    #: spans of a traced run, written next to the report
    spans: Optional[SpanRecorder] = None

    def fail(self, message: str, *ids: str) -> None:
        self.failures.append(message)
        self.failed_ids.update(ids)

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.operations if op in self.failed_ids)

    @property
    def correct(self) -> bool:
        return not self.failures and self.attempted > 0


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    """Median, or 0 when nothing finished (such a run has failed anyway)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


@dataclass
class TimedUnit:
    """One timed unit of a run: a pass of simulated points, or a served
    round, with the host's slowdown while it ran (see ``hostspeed``)."""

    #: host seconds the unit's operations took
    wall: float
    #: simulated cycles of the points it finished (executed, when served)
    cycles: int
    #: points it finished (fetched, when served)
    points: int
    #: host seconds per timed point
    latencies: List[float]
    slowdown: float


def timed_values(
    units: Sequence[TimedUnit], setup_s: float, scaled: bool = True
) -> Dict[str, float]:
    """The time metrics of a run from its timed units.

    Each rate and latency percentile is taken per unit and reported as
    its median over the run's units, so a burst of load moves one unit,
    not the run.  Scaled, every time is in reference seconds: host
    seconds over the unit's slowdown (the set-up's over the first
    unit's); unscaled, in host seconds.
    """
    units = [u for u in units if u.latencies]

    def seconds(unit: TimedUnit, host_s: float) -> float:
        return host_s / unit.slowdown if scaled else host_s

    return {
        "sim_cycles_per_s": median(u.cycles / seconds(u, u.wall) for u in units),
        "points_per_s": median(u.points / seconds(u, u.wall) for u in units),
        "latency_s_p50": median(
            quantile([seconds(u, s) for s in u.latencies], 0.5) for u in units
        ),
        "latency_s_p90": median(
            quantile([seconds(u, s) for s in u.latencies], 0.9) for u in units
        ),
        "setup_s": seconds(units[0], setup_s) if units else setup_s,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this interpreter or any child it reaped."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def build_report(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    outcome: RunOutcome,
    declaration: Dict[str, object],
) -> Dict[str, object]:
    """The full report document; its ``result`` block is the last line.

    A traced run reports the per-layer metrics, an untraced run the
    end-to-end ones."""
    metrics: Dict[str, Dict[str, object]] = {}
    for decl in declaration["per_layer" if trace else "end_to_end"]:
        name = decl["name"]
        if name not in outcome.values:
            raise KeyError(f"workload {workload} did not measure metric {name!r}")
        metrics[name] = {"value": outcome.values[name], "unit": decl["unit"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "points": outcome.points,
        "host_seconds_metrics": outcome.host_values,
        "notes": outcome.notes,
        "failures": outcome.failures,
        "result": {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


def metric_lines(report: Dict[str, object]) -> List[str]:
    """Every metric by name with its unit, one per line."""
    result = report["result"]
    lines = [
        f"{report['workload']} seed={report['seed']} trace={int(report['trace'])}: "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"{'correct' if result['correct'] else 'INCORRECT'}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    lines.extend(f"  note: {note}" for note in report["notes"])
    lines.extend(f"  FAILED: {failure}" for failure in report["failures"])
    return lines
