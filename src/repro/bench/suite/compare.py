"""Compare two sets of suite reports, metric by metric.

``python -m repro.bench.suite compare --before A*.json --after B*.json``
groups each side's reports by (workload, metric) and prints the median
and quartiles of both sides, the change of the median as a share of the
``before`` median (positive = worse), the metric's bound from
``BENCHMARK.json``, and a verdict:

* ``unresolved`` — either side's spread (interquartile range over
  median) is wider than the bound, and not every ``after`` run beats
  every ``before`` run;
* ``worse`` — the median got worse by more than the bound;
* ``better`` — at least nine tenths of (before, after) pairs favour
  ``after`` and the medians differ by more than ``before``'s own
  interquartile range;
* ``unchanged`` — otherwise;
* ``missing`` — the pair has ``before`` values but no ``after`` values.

A report whose run was incorrect (``correct`` false, or any failed
operation) adds no values: its numbers measure a program that did not
produce the right outputs.  It is listed instead.

Per-layer metrics have no bound and are listed with verdict ``-``.  The
exit status is 1 when any metric is ``worse`` or ``missing``, or any
report was incorrect.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (workload, metric) -> values, one per report
Samples = Dict[Tuple[str, str], List[float]]


@dataclass
class ReportSet:
    """One side of a comparison."""

    samples: Samples = field(default_factory=dict)
    #: metric name -> unit
    units: Dict[str, str] = field(default_factory=dict)
    #: one line per incorrect report
    incorrect: List[str] = field(default_factory=list)


def load_samples(paths: Iterable[str]) -> ReportSet:
    """Metric values per (workload, metric) across the correct reports at
    ``paths``; incorrect reports are listed, not counted."""
    side = ReportSet()
    for path in paths:
        report = json.loads(Path(path).read_text())
        result = report["result"]
        if not result["correct"] or result["failed"]:
            side.incorrect.append(
                f"{path} ({report['workload']}): incorrect, "
                f"{result['failed']} of {result['attempted']} operations failed"
            )
            continue
        for name, metric in result["metrics"].items():
            side.samples.setdefault((report["workload"], name), []).append(
                float(metric["value"])
            )
            side.units[name] = metric["unit"]
    return side


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(part: float, whole: float) -> float:
    if whole:
        return part / abs(whole)
    return 0.0 if part == 0 else float("inf")


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    before: Tuple[float, float, float]
    #: None when the pair is missing after
    after: Optional[Tuple[float, float, float]]
    #: change of the median as a share of the before median; > 0 is worse
    worse_by: Optional[float]
    bound: Optional[float]
    verdict: str


def verdict(
    before: Sequence[float],
    after: Sequence[float],
    lower_is_better: bool,
    bound: Optional[float],
) -> Tuple[float, str]:
    """(worse_by, verdict) for one metric; see the module doc."""
    b_q1, b_med, b_q3 = quartiles(before)
    a_q1, a_med, a_q3 = quartiles(after)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * _share(a_med - b_med, b_med)
    if bound is None:
        return worse_by, "-"

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = [(b, a) for b in before for a in after]
    wins = sum(1 for b, a in pairs if better(a, b))
    every_run_better = wins == len(pairs)
    spread = max(_share(b_q3 - b_q1, b_med), _share(a_q3 - a_q1, a_med))
    if spread > bound and not every_run_better:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if wins >= 0.9 * len(pairs) and abs(a_med - b_med) > (b_q3 - b_q1):
        return worse_by, "better"
    return worse_by, "unchanged"


def compare(before: ReportSet, after: ReportSet, declaration: Dict) -> List[Row]:
    """One row per declared (workload, metric) with ``before`` values."""
    declared = {
        m["name"]: m for m in declaration["end_to_end"] + declaration["per_layer"]
    }
    units = {**before.units, **after.units}
    rows: List[Row] = []
    for key in sorted(before.samples):
        workload, metric = key
        decl = declared.get(metric)
        if decl is None:
            continue
        bound = decl.get("bound")
        b_values = before.samples[key]
        a_values = after.samples.get(key)
        if a_values is None:
            worse_by, result, a_quartiles = None, "missing", None
        else:
            worse_by, result = verdict(
                b_values, a_values, decl["better"] == "lower", bound
            )
            a_quartiles = quartiles(a_values)
        rows.append(
            Row(
                workload=workload,
                metric=metric,
                unit=units[metric],
                before=quartiles(b_values),
                after=a_quartiles,
                worse_by=worse_by,
                bound=bound,
                verdict=result,
            )
        )
    return rows


def failing(rows: List[Row], before: ReportSet, after: ReportSet) -> bool:
    """Whether the comparison fails: a metric worse or missing, or an
    incorrect report on either side."""
    return (
        any(row.verdict in ("worse", "missing") for row in rows)
        or bool(before.incorrect)
        or bool(after.incorrect)
    )


def row_lines(rows: List[Row]) -> List[str]:
    lines = [
        f"{'workload':<20} {'metric':<34} {'before q1/med/q3':>32} "
        f"{'after q1/med/q3':>32} {'worse by':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        before = "/".join(f"{v:.4g}" for v in row.before)
        after = "/".join(f"{v:.4g}" for v in row.after) if row.after else "-"
        worse_by = f"{row.worse_by:>+9.3f}" if row.worse_by is not None else f"{'-':>9}"
        bound = f"{row.bound:.2f}" if row.bound is not None else "-"
        lines.append(
            f"{row.workload:<20} {row.metric:<34} {before:>32} {after:>32} "
            f"{worse_by} {bound:>6}  {row.verdict} [{row.unit}]"
        )
    return lines
