"""The simulation workloads: serial sweeps and the sharded collective.

Untraced, a sweep point runs through
:func:`~repro.experiments.runner.execute_point` and a sharded point
through :class:`~repro.shard.coordinator.ShardedSystem`; the suite only
times the calls.  Traced, each point is driven through the same public
pieces ``execute_point`` composes — ``get_workload(...).build``, the
node constructor, ``load``, ``run`` — under the engine profiler, with a
span around each piece; then the executed points are re-run untraced,
which gives the tracing overhead and checks that the profiler did not
perturb a single result.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.smoke import results_digest
from repro.bench.suite import hostspeed
from repro.bench.suite.layers import SIM_LAYERS, LayerTally, profile_rows
from repro.bench.suite.reference import Reference
from repro.bench.suite.report import RunOutcome, TimedUnit, peak_rss_mb, timed_values
from repro.bench.suite.spans import SpanRecorder
from repro.bench.suite.workloads import SimPoint, Workload
from repro.experiments.runner import ExperimentPoint, execute_point
from repro.gpu.system import MultiGpuSystem
from repro.obs import EngineProfiler, Observability
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec
from repro.stats.coord import CoordStats
from repro.stats.report import RunResult
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload


#: simulator layers reported per layer (the faults layer is idle: no
#: workload injects faults)
REPORTED_LAYERS = tuple(layer for layer in SIM_LAYERS if layer != "faults")


def _sharded_node(xp: ExperimentPoint, n_shards: int, obs_spec=None) -> ShardedSystem:
    return ShardedSystem(
        config=xp.system,
        netcrafter=xp.netcrafter,
        seed=xp.seed,
        n_shards=n_shards,
        parallel=True,
        adaptive=True,
        obs_spec=obs_spec,
    )


def _build(xp: ExperimentPoint):
    return get_workload(xp.workload).build(
        n_gpus=xp.system.n_gpus, scale=xp.scale, seed=xp.seed
    )


def execute_untraced(
    wl: Workload, point: SimPoint
) -> Tuple[RunResult, Optional[CoordStats]]:
    """Simulate one point on the workload's own path, uninstrumented."""
    xp = wl.experiment_point(point)
    if wl.kind == "sharded":
        node = _sharded_node(xp, wl.n_shards)
        node.load(_build(xp))
        return node.run(), node.coord_stats
    return execute_point(xp)[0], None


def execute_traced(
    xp: ExperimentPoint, label: str, spans: SpanRecorder, n_shards: int = 1
) -> Tuple[RunResult, Dict[str, object], Dict[str, object], float]:
    """Simulate one point piece by piece under the engine profiler.

    Returns the result, its serialized payload, the profile document
    (per-shard profiles merged when ``n_shards > 1``) and the seconds of
    ``run()`` that this process spent neither in profiled callbacks nor
    waiting on shard workers.
    """
    with spans.span("experiments.execute_point", point=label):
        with spans.span("workloads.build"):
            trace = _build(xp)
        with spans.span("gpu.construct"):
            if n_shards > 1:
                node = _sharded_node(xp, n_shards, ShardObsSpec(profile=True))
            else:
                profiler = EngineProfiler()
                node = MultiGpuSystem(
                    config=xp.system,
                    netcrafter=xp.netcrafter,
                    seed=xp.seed,
                    obs=Observability(profiler=profiler),
                )
        with spans.span("vm.load"):
            node.load(trace)
        with spans.span("sim.run") as run_span:
            result = node.run()
        with spans.span("stats.serialize"):
            payload = result.to_dict()
    run_wall = run_span["end"] - run_span["start"]
    if n_shards > 1:
        profile = node.merged_obs().profiler.to_dict()
        # the callbacks ran in the shard workers, inside the wait
        outside = run_wall - node.coord_stats.idle_wait_seconds
    else:
        profile = profiler.to_dict()
        outside = run_wall - float(profile["wall_seconds"])
    return result, payload, profile, outside


def warm_up(wl: Workload) -> None:
    """One tiny point on the workload's path: lazy imports, first forks."""
    execute_untraced(replace(wl, scale=Scale.tiny()), wl.points(0)[0])


def sim_layer_values(
    tally: LayerTally,
    spans: SpanRecorder,
    results: List[RunResult],
    loop_self_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of traced simulation points.

    ``loop_self_s`` is the summed time of ``run()`` the suite's process
    spent outside profiled callbacks and outside waits on shard workers:
    the engine's own dispatch loop on a single engine, the coordinator's
    own work on a sharded run.
    """
    values: Dict[str, float] = {}
    for layer in REPORTED_LAYERS:
        events = tally.events[layer]
        seconds = tally.seconds[layer]
        values[f"{layer}.events"] = events
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.us_per_event"] = 1e6 * seconds / events if events else 0.0
    cycles = sum(r.cycles for r in results)
    link_cycles = sum(r.cycles * r.inter_links for r in results)
    entered = sum(r.flits_entered for r in results)
    values["network.inter_flits"] = sum(r.inter_flits_sent for r in results)
    values["network.inter_utilization"] = (
        sum(r.inter_busy_cycles for r in results) / link_cycles if link_cycles else 0.0
    )
    values["core.stitch_rate"] = (
        sum(r.flits_absorbed for r in results) / entered if entered else 0.0
    )
    values["core.packets_trimmed"] = sum(r.packets_trimmed for r in results)
    values["sim.events"] = tally.total_events
    values["sim.events_per_cycle"] = tally.total_events / cycles if cycles else 0.0
    values["sim.loop_self_s"] = loop_self_s
    for metric, span in (
        ("workloads.build_s", "workloads.build"),
        ("gpu.construct_s", "gpu.construct"),
        ("vm.load_s", "vm.load"),
        ("stats.serialize_s", "stats.serialize"),
        ("experiments.execute_point_s", "experiments.execute_point"),
    ):
        values[metric] = spans.total(span)
    return values


def shard_values(stats: List[CoordStats], wall: float) -> Dict[str, float]:
    """Coordination counters summed over sharded points (zero unsharded)."""
    windows = sum(s.windows for s in stats)
    pickle_bytes = sum(s.pickle_bytes for s in stats)
    return {
        "shard.windows": windows,
        "shard.verb_round_trips": sum(s.verb_round_trips for s in stats),
        "shard.pickle_bytes_per_window": pickle_bytes / windows if windows else 0.0,
        "shard.mail_items": sum(s.mail_items for s in stats),
        "shard.idle_wait_ratio": (
            sum(s.idle_wait_seconds for s in stats) / wall if stats and wall else 0.0
        ),
    }


#: serving-layer metrics a simulation workload never touches
SERVING_IDLE = {
    "experiments.cache_reads": 0,
    "experiments.cache_writes": 0,
    "experiments.cache_get_share": 0.0,
    "experiments.cache_put_share": 0.0,
    "campaign.submit_share": 0.0,
    "campaign.fetch_share": 0.0,
    "campaign.points_executed": 0,
    "campaign.points_served_memo": 0,
    "campaign.dedupe_ratio": 0.0,
}


class _Digests:
    """Per-point digests of one run.  A point run twice — a repeated
    pass, or its traced and untraced runs — must digest the same."""

    def __init__(self, outcome: RunOutcome) -> None:
        self.outcome = outcome
        self.points: Dict[str, SimPoint] = {}
        self.by_label: Dict[str, str] = {}

    def add(self, point: SimPoint, payload: Dict[str, object], what: str) -> None:
        digest = results_digest([payload])
        self.points.setdefault(point.label, point)
        seen = self.by_label.setdefault(point.label, digest)
        if seen != digest:
            self.outcome.fail(
                f"{point.label}: {what} run digests {digest[:16]}, "
                f"earlier run {seen[:16]}",
                point.label,
            )

    def check_reference(self, wl: Workload, reference: Reference) -> None:
        """Committed digests where covered; otherwise re-simulate the
        first, middle and last uncovered point on the single-engine path."""
        uncovered: List[SimPoint] = []
        for label, point in self.points.items():
            expected = reference.expected(wl.name, label)
            if expected is None:
                uncovered.append(point)
            elif self.by_label[label] != expected:
                self.outcome.fail(
                    f"{label}: digest differs from the committed reference", label
                )
        if not uncovered:
            return
        picks = sorted({0, len(uncovered) // 2, len(uncovered) - 1})
        for index in picks:
            point = uncovered[index]
            result, _ = execute_point(wl.experiment_point(point))
            if self.by_label[point.label] != results_digest([result.to_dict()]):
                self.outcome.fail(
                    f"{point.label}: digest differs from the single-engine reference",
                    point.label,
                )
        self.outcome.notes.append(
            f"{len(uncovered)} point(s) outside the committed reference; "
            f"{len(picks)} re-simulated on the single-engine path"
        )


def _attempt(outcome: RunOutcome, point: SimPoint, call: Callable):
    """``call()``, or ``None`` with the failure counted against ``point``."""
    try:
        return call()
    except Exception as exc:  # a failing point is counted, not fatal
        outcome.fail(f"{point.label}: {type(exc).__name__}: {exc}", point.label)
        return None


def _timed_loop(
    wl: Workload,
    passes: List[List[SimPoint]],
    seconds: float,
    run_point: Callable[[SimPoint], Optional[RunResult]],
) -> List[TimedUnit]:
    """Run whole passes in turn, cycling, until the ``seconds`` budget is
    spent (the pass in flight finishes), with a host-speed probe before
    and after every point."""
    measured: List[TimedUnit] = []
    probes = [hostspeed.probe(wl.multi_process)]
    budget = hostspeed.Budget(seconds)
    while True:
        first_probe = len(probes) - 1
        unit = TimedUnit(wall=0.0, cycles=0, points=0, latencies=[], slowdown=1.0)
        for point in passes[len(measured) % len(passes)]:
            began = time.perf_counter()
            result = run_point(point)
            took = time.perf_counter() - began
            probes.append(hostspeed.probe(wl.multi_process))
            unit.wall += took
            if result is not None:
                unit.cycles += result.cycles
                unit.points += 1
                unit.latencies.append(took)
        unit.slowdown = hostspeed.slowdown(probes[first_probe:])
        measured.append(unit)
        budget.spend(unit.wall, unit.slowdown)
        if budget.spent:
            return measured


def run_sim(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Reference,
    started: float,
) -> RunOutcome:
    """Run a sweep or sharded workload for ``seconds``; see module doc.

    ``started`` is the ``perf_counter`` reading at the run's first line;
    the set-up time runs from it to the first timed point.
    """
    outcome = RunOutcome()
    if wl.note:
        outcome.notes.append(wl.note)
    passes = wl.passes(seed)
    warm_up(wl)
    if trace:
        _run_traced(wl, passes, seconds, reference, outcome)
    else:
        _run_untraced(wl, passes, seconds, reference, outcome, started)
    outcome.operations = list(outcome.points)
    return outcome


def _run_untraced(
    wl: Workload,
    passes: List[List[SimPoint]],
    seconds: float,
    reference: Reference,
    outcome: RunOutcome,
    started: float,
) -> None:
    """The time metrics from the run's passes (see ``timed_values``)."""
    setup = time.perf_counter() - started
    finished: List[Tuple[SimPoint, RunResult]] = []

    def run_point(point: SimPoint) -> Optional[RunResult]:
        ran = _attempt(outcome, point, lambda: execute_untraced(wl, point))
        outcome.points.append(point.label)
        if ran is None:
            return None
        finished.append((point, ran[0]))
        return ran[0]

    measured = _timed_loop(wl, passes, seconds, run_point)
    # before the reference check, which may simulate more points here
    outcome.values["peak_rss_mb"] = peak_rss_mb()
    digests = _Digests(outcome)
    for point, result in finished:
        digests.add(point, result.to_dict(), "repeated")
    digests.check_reference(wl, reference)
    outcome.host_values = timed_values(measured, setup, scaled=False)
    outcome.values.update(timed_values(measured, setup))


def _run_traced(
    wl: Workload,
    passes: List[List[SimPoint]],
    seconds: float,
    reference: Reference,
    outcome: RunOutcome,
) -> None:
    spans = SpanRecorder()
    tally = LayerTally()
    digests = _Digests(outcome)
    finished: List[Tuple[SimPoint, RunResult]] = []
    loop_self_s = 0.0

    def run_point(point: SimPoint) -> Optional[RunResult]:
        nonlocal loop_self_s
        ran = _attempt(
            outcome,
            point,
            lambda: execute_traced(
                wl.experiment_point(point), point.label, spans, wl.n_shards
            ),
        )
        outcome.points.append(point.label)
        if ran is None:
            return None
        result, payload, profile, outside = ran
        tally.add(profile_rows(profile))
        loop_self_s += outside
        finished.append((point, result))
        digests.add(point, payload, "traced")
        return result

    _timed_loop(wl, passes, seconds, run_point)

    # the same points untraced: the overhead baseline, and a check that
    # profiling perturbed no result
    coord: List[CoordStats] = []
    untraced_wall = 0.0
    for point, _ in finished:
        began = time.perf_counter()
        ran = _attempt(outcome, point, lambda: execute_untraced(wl, point))
        untraced_wall += time.perf_counter() - began
        if ran is not None:
            digests.add(point, ran[0].to_dict(), "untraced")
            if ran[1] is not None:
                coord.append(ran[1])
    digests.check_reference(wl, reference)

    results = [result for _, result in finished]
    processed = sum(r.events_processed for r in results)
    if tally.total_events != processed:
        outcome.fail(
            f"per-layer events sum to {tally.total_events}, runs processed {processed}"
        )
    outcome.values.update(sim_layer_values(tally, spans, results, loop_self_s))
    outcome.values.update(shard_values(coord, untraced_wall))
    outcome.values.update(SERVING_IDLE)
    traced_wall = spans.total("experiments.execute_point")
    outcome.values["obs.trace_overhead_ratio"] = (
        traced_wall / untraced_wall if untraced_wall else 0.0
    )
    outcome.spans = spans
