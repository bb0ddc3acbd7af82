"""Benchmark harness: timing, RSS tracking, report assembly, comparison.

Every benchmark is a no-argument callable returning ``(work_units,
extra)`` where ``work_units`` is the benchmark's throughput numerator
(engine events, flits, scans, ...) and ``extra`` is a dict of
benchmark-specific fields merged into the record.  The harness wraps the
call with wall-clock timing and peak-RSS sampling and normalizes
everything into :class:`BenchRecord` rows.

``ru_maxrss`` is a process-lifetime high-water mark, so per-benchmark
peak RSS is monotonically non-decreasing across the run; it answers
"how much memory did the suite need by this point", not "how much did
this benchmark allocate".
"""

from __future__ import annotations

import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.schema import BENCH_SCHEMA_VERSION
from repro.bench.suite.layers import SIM_LAYERS


def peak_rss_kb() -> int:
    """Process peak resident set size in KiB (Linux ``ru_maxrss`` unit)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = usage.ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - darwin reports bytes
        rss //= 1024
    return int(rss)


@dataclass
class BenchRecord:
    """One benchmark's measured row in ``BENCH_core.json``."""

    name: str
    kind: str  # "micro" | "e2e"
    work_units: int
    wall_seconds: float
    peak_rss_kb: int
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        """Work units per second (the regression-tracked figure)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.work_units / self.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "work_units": self.work_units,
            "wall_seconds": self.wall_seconds,
            "units_per_second": self.rate,
            "peak_rss_kb": self.peak_rss_kb,
        }
        out.update(self.extra)
        return out


@dataclass
class BenchReport:
    """The full ``BENCH_core.json`` document."""

    records: List[BenchRecord]
    quick: bool
    comparison: Optional[Dict[str, object]] = None

    def record(self, name: str) -> Optional[BenchRecord]:
        for rec in self.records:
            if rec.name == name:
                return rec
        return None

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": BENCH_SCHEMA_VERSION,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": self.quick,
            "benchmarks": [rec.to_dict() for rec in self.records],
        }
        if self.comparison is not None:
            doc["comparison"] = self.comparison
        return doc


Benchmark = Tuple[str, str, Callable[[], Tuple[int, Dict[str, object]]]]


def measure(
    name: str,
    kind: str,
    fn: Callable[[], Tuple[int, Dict[str, object]]],
    repeats: int = 1,
) -> BenchRecord:
    """Run one benchmark callable under timing + RSS instrumentation.

    With ``repeats > 1`` the callable runs that many times and the
    *minimum* wall time is reported: every benchmark in the suite is
    deterministic, so the spread between repeats is scheduler/frequency
    noise and the minimum is the least-contaminated estimate of the
    code's cost.  The ``extra`` fields come from the fastest repeat too,
    so timing-derived extras (``sharded_wall_seconds``, idle waits) stay
    consistent with the reported wall time.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    wall = float("inf")
    best_extra: Dict[str, object] = {}
    for _ in range(repeats):
        start = time.perf_counter()
        work_units, run_extra = fn()
        elapsed = time.perf_counter() - start
        if elapsed < wall:
            wall = elapsed
            best_extra = run_extra
    extra = best_extra
    record = BenchRecord(
        name=name,
        kind=kind,
        work_units=int(work_units),
        wall_seconds=wall,
        peak_rss_kb=peak_rss_kb(),
        extra=dict(extra),
    )
    record.extra.setdefault("repeats", repeats)
    return record


def default_suite(quick: bool) -> List[Benchmark]:
    """The standard benchmark suite, sized for full or quick (CI) runs."""
    from repro.bench import micro, smoke

    return [
        ("engine_dispatch", "micro", lambda: micro.bench_engine_dispatch(quick)),
        ("flit_link_throughput", "micro", lambda: micro.bench_flit_link(quick)),
        ("packet_link_throughput", "micro", lambda: micro.bench_packet_link(quick)),
        ("cluster_queue_stitch_scan", "micro", lambda: micro.bench_stitch_scan(quick)),
        ("smoke_sweep", "e2e", lambda: smoke.bench_smoke_sweep(quick)),
        ("sharded_speedup", "e2e", lambda: smoke.bench_sharded_speedup(quick)),
    ]


def run_benchmarks(
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> BenchReport:
    """Run the suite (optionally a named subset) and assemble the report."""
    suite = default_suite(quick)
    if only:
        wanted = set(only)
        known = {name for name, _, _ in suite}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown benchmark(s): {sorted(unknown)}; known: {sorted(known)}"
            )
        suite = [bench for bench in suite if bench[0] in wanted]
    records = []
    for name, kind, fn in suite:
        record = measure(name, kind, fn, repeats=repeats)
        if name == "smoke_sweep":
            # exact work and order counts from one extra, untimed pass
            from repro.bench.smoke import smoke_dispatch_profile

            record.extra.update(smoke_dispatch_profile(quick))
        records.append(record)
    return BenchReport(records=records, quick=quick)


#: a benchmark whose serialized coordination traffic more than doubles
#: per window has structurally regressed, regardless of wall clock
PICKLE_BYTES_FAIL_RATIO = 2.0

#: per-row overhead fields surfaced in comparison tables when present
_OVERHEAD_FIELDS = (
    "verb_round_trips",
    "pickle_bytes_per_window",
    "idle_wait_seconds",
)


def _same_grid(current: dict, cur_row: dict, baseline: dict, base_row: dict) -> bool:
    """Whether two rows ran the same point grid, so that their results
    digests and event counts compare like with like."""
    return cur_row.get("points") == base_row.get("points") and bool(
        current.get("quick")
    ) == bool(baseline.get("quick"))


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    fail_threshold: float = 1.3,
) -> Dict[str, object]:
    """Diff ``current`` against ``baseline`` (both ``to_dict`` documents).

    Returns a comparison block with, per benchmark present in both:
    ``speedup`` (current rate / baseline rate, >1 means faster now),
    the two rates, and the threshold applied.  A baseline row may carry
    its own ``fail_threshold`` (for benchmarks known to be noisy on CI
    runners); rows without one use the global default.  ``regressions``
    lists benchmarks slower than their threshold (and the count gates
    below, suffixed with the count's name); ``digest_match`` is
    ``False`` when any shared e2e benchmark's result digest moved, i.e.
    simulator semantics changed.

    Three special gates:

    * On a single-CPU host a sharded benchmark's ``units_per_second``
      mixes the single-engine and sharded phases, and "speedup" over
      serialized processes is meaningless — so when both rows record
      ``sharded_wall_seconds`` and the current host has ``cpus <= 1``,
      the row is gated on the wall-clock ratio of the sharded phase
      alone (``gated_on`` names the field).
    * When both rows record ``pickle_bytes_per_window``, the current
      value may not exceed :data:`PICKLE_BYTES_FAIL_RATIO` times the
      baseline — coordination traffic is deterministic, so growth there
      is a real structural regression, not machine noise.
    * When both rows record ``events`` on the same point grid, the counts
      must be equal: the engine's event count is deterministic, so any
      change (up or down) is structural and has to be explained by
      re-recording the baseline.  ``events_by_callback`` is gated the
      same way, key by key: the row's ``callback_deltas`` lists every
      callback whose count moved (a key one side lacks counts as 0), and
      the regression names them.  ``events_by_layer`` holds the same
      counts summed per simulator layer; the row's ``layer_counts``
      keeps every layer's before/after pair for the per-layer table.
      ``dispatch_order`` (the sha256 over
      every dispatched event's cycle, schedule key and callback key) must
      be equal too: equal counts in another order fail it.
    """
    cur_by_name = {b["name"]: b for b in current.get("benchmarks", [])}
    base_by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    for name, cur in cur_by_name.items():
        base = base_by_name.get(name)
        if base is None:
            continue
        cur_rate = float(cur["units_per_second"])
        base_rate = float(base["units_per_second"])
        speedup = cur_rate / base_rate if base_rate > 0 else 0.0
        threshold = float(base.get("fail_threshold", fail_threshold))
        row: Dict[str, object] = {
            "name": name,
            "baseline_units_per_second": base_rate,
            "current_units_per_second": cur_rate,
            "speedup": speedup,
            "fail_threshold": threshold,
        }
        cur_wall = cur.get("sharded_wall_seconds")
        base_wall = base.get("sharded_wall_seconds")
        if (
            cur_wall is not None
            and base_wall is not None
            and int(cur.get("cpus", 0) or 0) <= 1
        ):
            wall_speedup = (
                float(base_wall) / float(cur_wall) if float(cur_wall) > 0 else 0.0
            )
            row["gated_on"] = "sharded_wall_seconds"
            row["baseline_sharded_wall_seconds"] = float(base_wall)
            row["current_sharded_wall_seconds"] = float(cur_wall)
            row["speedup"] = wall_speedup
        gate_speedup = float(row["speedup"])
        for key in _OVERHEAD_FIELDS:
            if key in cur:
                row[key] = cur[key]
        rows.append(row)
        if gate_speedup > 0 and gate_speedup < 1.0 / threshold:
            regressions.append(name)
        cur_events = cur.get("events")
        base_events = base.get("events")
        if (
            cur_events is not None
            and base_events is not None
            and _same_grid(current, cur, baseline, base)
        ):
            row["baseline_events"] = int(base_events)
            row["current_events"] = int(cur_events)
            if int(cur_events) != int(base_events):
                regressions.append(f"{name} (events)")
        cur_calls = cur.get("events_by_callback")
        base_calls = base.get("events_by_callback")
        if (
            cur_calls is not None
            and base_calls is not None
            and _same_grid(current, cur, baseline, base)
        ):
            deltas = [
                {
                    "callback": key,
                    "baseline": int(base_calls.get(key, 0)),
                    "current": int(cur_calls.get(key, 0)),
                }
                for key in sorted(set(base_calls) | set(cur_calls))
                if base_calls.get(key, 0) != cur_calls.get(key, 0)
            ]
            row["callback_deltas"] = deltas
            if deltas:
                moved = ", ".join(delta["callback"] for delta in deltas)
                regressions.append(f"{name} (events by callback: {moved})")
        cur_layers = cur.get("events_by_layer")
        base_layers = base.get("events_by_layer")
        if (
            cur_layers is not None
            and base_layers is not None
            and _same_grid(current, cur, baseline, base)
        ):
            # every layer, moved or not: the work gate's per-layer
            # before/after view (a moved layer moved a callback, which
            # the per-callback gate above already fails)
            row["layer_counts"] = [
                {
                    "layer": layer,
                    "baseline": int(base_layers.get(layer, 0)),
                    "current": int(cur_layers.get(layer, 0)),
                }
                for layer in SIM_LAYERS
                if layer in cur_layers or layer in base_layers
            ]
        cur_order = cur.get("dispatch_order")
        base_order = base.get("dispatch_order")
        if (
            cur_order is not None
            and base_order is not None
            and _same_grid(current, cur, baseline, base)
        ):
            row["dispatch_order_match"] = cur_order == base_order
            if cur_order != base_order:
                regressions.append(f"{name} (dispatch order)")
        cur_pickle = cur.get("pickle_bytes_per_window")
        base_pickle = base.get("pickle_bytes_per_window")
        if cur_pickle and base_pickle:
            ratio = float(cur_pickle) / float(base_pickle)
            row["pickle_bytes_ratio"] = round(ratio, 3)
            if ratio > PICKLE_BYTES_FAIL_RATIO:
                regressions.append(f"{name} (pickle bytes)")

    digest_match: Optional[bool] = None
    for name, cur in cur_by_name.items():
        base = base_by_name.get(name)
        if base is None:
            continue
        cur_digest = cur.get("results_digest")
        base_digest = base.get("results_digest")
        if cur_digest is None or base_digest is None:
            continue
        if _same_grid(current, cur, baseline, base):
            same = cur_digest == base_digest
            digest_match = same if digest_match in (None, True) else False

    return {
        "baseline_python": baseline.get("python"),
        "fail_threshold": fail_threshold,
        "benchmarks": rows,
        "regressions": regressions,
        "digest_match": digest_match,
    }


def comparison_lines(comparison: Dict[str, object]) -> List[str]:
    """Human-readable rendering of a :func:`compare_reports` block."""
    lines = [
        "benchmark                        baseline/s      current/s"
        "   speedup  threshold"
    ]
    for row in comparison["benchmarks"]:
        threshold = row.get("fail_threshold", comparison["fail_threshold"])
        lines.append(
            f"{row['name']:<30} {row['baseline_units_per_second']:>13.0f} "
            f"{row['current_units_per_second']:>14.0f} "
            f"{row['speedup']:>8.2f}x "
            f"{threshold:>9.2f}x"
        )
        if row.get("gated_on") == "sharded_wall_seconds":
            lines.append(
                f"{'':<30} (single-CPU host: gated on sharded wall "
                f"{row['baseline_sharded_wall_seconds']:.3f}s -> "
                f"{row['current_sharded_wall_seconds']:.3f}s)"
            )
        if "current_events" in row:
            lines.append(
                f"{'':<30} events {row['baseline_events']} -> "
                f"{row['current_events']}"
                + ("" if row["baseline_events"] == row["current_events"] else " (CHANGED)")
            )
        if row.get("layer_counts"):
            lines.append(
                f"{'':<30} {'layer':<42} {'baseline':>9} {'current':>9} "
                f"{'delta':>8}"
            )
            for entry in row["layer_counts"]:
                lines.append(
                    f"{'':<30} {entry['layer']:<42} "
                    f"{entry['baseline']:>9} {entry['current']:>9} "
                    f"{entry['current'] - entry['baseline']:>+8}"
                )
        if row.get("callback_deltas"):
            lines.append(
                f"{'':<30} {'callback':<42} {'baseline':>9} {'current':>9} "
                f"{'delta':>8}"
            )
            for delta in row["callback_deltas"]:
                lines.append(
                    f"{'':<30} {delta['callback']:<42} "
                    f"{delta['baseline']:>9} {delta['current']:>9} "
                    f"{delta['current'] - delta['baseline']:>+8}"
                )
        if row.get("dispatch_order_match") is False:
            lines.append(f"{'':<30} dispatch order CHANGED")
    if comparison["regressions"]:
        lines.append(
            "REGRESSIONS (slower than their threshold, or a gated count "
            "moved): "
            + ", ".join(comparison["regressions"])
        )
    if comparison.get("digest_match") is False:
        lines.append(
            "RESULT DIGEST MISMATCH: an e2e benchmark no longer produces "
            "bit-identical stats (simulator semantics changed)"
        )
    return lines


def overhead_markdown(rows: List[Dict[str, object]]) -> List[str]:
    """Markdown table of coordination-overhead counters, when recorded.

    ``rows`` may be comparison rows or raw benchmark records — anything
    carrying ``verb_round_trips`` / ``pickle_bytes_per_window`` /
    ``idle_wait_seconds`` fields.  Empty when no row records them.
    """
    with_overhead = [
        row for row in rows if any(key in row for key in _OVERHEAD_FIELDS)
    ]
    if not with_overhead:
        return []
    lines = [
        "",
        "#### Coordination overhead",
        "",
        "| benchmark | verb round trips | pickle bytes/window "
        "| vs baseline | idle wait |",
        "|---|---:|---:|---:|---:|",
    ]
    for row in with_overhead:
        trips = row.get("verb_round_trips")
        per_window = row.get("pickle_bytes_per_window")
        ratio = row.get("pickle_bytes_ratio")
        idle = row.get("idle_wait_seconds")
        lines.append(
            f"| {row['name']} "
            f"| {trips if trips is not None else '—'} "
            f"| {f'{per_window:,.0f}' if per_window is not None else '—'} "
            f"| {f'{ratio:.2f}x' if ratio is not None else '—'} "
            f"| {f'{idle:.3f}s' if idle is not None else '—'} |"
        )
    return lines


def comparison_markdown(comparison: Dict[str, object]) -> List[str]:
    """GitHub-flavoured markdown table of a :func:`compare_reports` block.

    CI appends this to the job's step summary so per-benchmark deltas
    are readable without digging into the JSON artifact.
    """
    lines = [
        "| benchmark | baseline/s | current/s | speedup | threshold | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    regressed = comparison["regressions"]
    for row in comparison["benchmarks"]:
        threshold = row.get("fail_threshold", comparison["fail_threshold"])
        name = row["name"]
        status = (
            "regressed"
            if any(r == name or r.startswith(f"{name} (") for r in regressed)
            else "ok"
        )
        shown = (
            f"{row['speedup']:.2f}x (wall)"
            if row.get("gated_on") == "sharded_wall_seconds"
            else f"{row['speedup']:.2f}x"
        )
        lines.append(
            f"| {name} "
            f"| {row['baseline_units_per_second']:,.0f} "
            f"| {row['current_units_per_second']:,.0f} "
            f"| {shown} "
            f"| {threshold:.2f}x "
            f"| {status} |"
        )
    lines.extend(overhead_markdown(comparison["benchmarks"]))
    moved = [
        (row["name"], delta)
        for row in comparison["benchmarks"]
        for delta in row.get("callback_deltas", ())
    ]
    if moved:
        lines += [
            "",
            "#### Events by callback that moved",
            "",
            "| benchmark | callback | baseline | current | delta |",
            "|---|---|---:|---:|---:|",
        ]
        lines += [
            f"| {name} | {delta['callback']} | {delta['baseline']:,} "
            f"| {delta['current']:,} "
            f"| {delta['current'] - delta['baseline']:+,} |"
            for name, delta in moved
        ]
    digest_match = comparison.get("digest_match")
    if digest_match is False:
        lines.append("")
        lines.append(
            "**RESULT DIGEST MISMATCH** — an e2e benchmark no longer "
            "reproduces the baseline's bit-identical stats."
        )
    elif digest_match is True:
        lines.append("")
        lines.append("Result digests match the baseline (bit-identical stats).")
    return lines
