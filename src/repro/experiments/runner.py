"""Shared experiment runner: caching, and parallel point fan-out.

Figures reuse each other's runs (every speedup figure needs the same
baseline), so results are memoized on the full configuration key; a
single pytest session regenerating all figures therefore simulates each
(workload, config) point exactly once.

Two layers sit on top of that in-process memo:

* :func:`run_many` fans a batch of independent
  :class:`ExperimentPoint`\\ s out over a ``ProcessPoolExecutor`` —
  simulation points share nothing, so they are embarrassingly parallel;
* an optional on-disk :class:`~repro.experiments.cache.ResultCache`
  (content-addressed by the full configuration) makes repeat figure
  regeneration nearly free across processes.

Every option — jobs, the disk cache, sharding, observability,
checkpointing, system overrides — travels in one frozen
:class:`RunContext`, passed explicitly or installed once by the entry
point (:func:`install_context`), and shipped to pool workers with each
point.

Every lookup and execution is tallied in :data:`run_stats` so the CLI
and benchmark harness can report per-point timing, cache effectiveness,
and parallel speedup.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import ResultCache, acquire, fingerprint, point_identity
from repro.gpu.cta import WorkloadTrace
from repro.obs import Observability
from repro.shard.build import ShardingOptions, build_node
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec
from repro.sim.collector import collector_paused
from repro.stats.report import RunResult
from repro.workloads.base import Scale
from repro.workloads.registry import all_workload_names, get_workload


@dataclass(frozen=True)
class ExperimentScale:
    """How big the experiment runs are and which workloads they cover."""

    scale: Scale = field(default_factory=Scale.small)
    workloads: Tuple[str, ...] = ()
    seed: int = 0

    def workload_names(self) -> List[str]:
        if self.workloads:
            return list(self.workloads)
        return all_workload_names()

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A representative six-workload subset (CI use).

        Keeps the small (congested) scale — the shape assertions in the
        benchmark harness need the paper's network-bound regime — but
        trims the workload list to one per access pattern.
        """
        return cls(
            scale=Scale.small(),
            workloads=("gups", "mt", "mis", "bs", "spmv", "lenet"),
        )

    @classmethod
    def standard(cls) -> "ExperimentScale":
        """All 15 workloads at the small experiment scale."""
        return cls(scale=Scale.small())

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Honour ``REPRO_SCALE`` = quick|standard|full (default standard)."""
        mode = os.environ.get("REPRO_SCALE", "standard").lower()
        if mode == "quick":
            return cls.quick()
        if mode == "full":
            return cls(scale=Scale.default())
        return cls.standard()


#: the configs a point leaving one out normalizes to.  Shared (configs
#: are frozen), so such points share their configs' encodings too.
_DEFAULT_SYSTEM = SystemConfig.default()
_DEFAULT_NETCRAFTER = NetCrafterConfig.baseline()
_DEFAULT_SCALE = Scale.small()


@dataclass(frozen=True)
class ExperimentPoint:
    """One independent simulation point: a (workload, configuration) tuple.

    ``None`` config fields mean "the default"; :meth:`normalized` fills
    them in, so equal normalized points are equal (and hash equal): a
    normalized point is its own in-process memo key.  A normalized
    point's cache descriptor and fingerprint (:attr:`identity`) are
    computed once and kept on it; pickling leaves them behind.
    """

    workload: str
    system: Optional[SystemConfig] = None
    netcrafter: Optional[NetCrafterConfig] = None
    scale: Optional[Scale] = None
    seed: int = 0

    def normalized(self, ctx: Optional["RunContext"] = None) -> "ExperimentPoint":
        system = self.system or _DEFAULT_SYSTEM
        overrides = (_installed if ctx is None else ctx).system_overrides
        if overrides:
            # the context's topology/bandwidth overrides (the CLI's
            # --topology / --bw-class) reshape every point, explicit
            # systems included; idempotent, so re-normalizing cannot
            # double-apply
            system = system.with_overrides(**dict(overrides))
        if (
            system is self.system
            and self.netcrafter is not None
            and self.scale is not None
        ):
            return self
        return ExperimentPoint(
            workload=self.workload,
            system=system,
            netcrafter=self.netcrafter or _DEFAULT_NETCRAFTER,
            scale=self.scale or _DEFAULT_SCALE,
            seed=self.seed,
        )

    def label(self) -> str:
        return f"{self.workload}/seed{self.seed}"

    @cached_property
    def identity(self) -> Tuple[Dict[str, object], str]:
        """``(descriptor, fingerprint)`` of this normalized point
        (:func:`~repro.experiments.cache.point_identity`), computed once:
        the point is frozen."""
        return point_identity(self)

    def __getstate__(self) -> Dict[str, object]:
        # pool workers need the fields only; the identity is recomputed
        # on demand
        state = dict(self.__dict__)
        state.pop("identity", None)
        return state


@dataclass
class ExecutionStats:
    """Counters describing where results came from and what they cost."""

    points: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    #: points served by waiting on another process's in-flight execution
    #: (cross-process claim dedupe through a shared cache dir)
    inflight_hits: int = 0
    #: corrupt cache entries quarantined during lookups
    corrupt_entries: int = 0
    executed: int = 0
    #: summed single-point simulation time (what a serial run would cost)
    exec_seconds: float = 0.0
    #: wall-clock spent inside run_many batches
    wall_seconds: float = 0.0
    batches: int = 0
    max_jobs: int = 1
    #: (label, seconds) of executed points, slowest retained first-come
    timings: List[Tuple[str, float]] = field(default_factory=list)

    def disk_hit_rate(self) -> float:
        """Disk hits over points that had to go past the in-process memo."""
        looked = self.disk_hits + self.executed
        if looked == 0:
            return 0.0
        return self.disk_hits / looked

    def parallel_speedup(self) -> float:
        """Summed per-point simulation time over batch wall time.

        On an uncontended multi-core machine this approximates the
        wall-clock speedup over a serial pass; when workers share cores
        it reads as the concurrency achieved, so the summary labels it
        "effective parallelism" rather than promising saved time.
        """
        if self.wall_seconds <= 0 or self.exec_seconds <= 0:
            return 1.0
        return max(1.0, self.exec_seconds / self.wall_seconds)

    def summary_lines(self) -> List[str]:
        lines = [
            f"points requested:   {self.points}",
            f"memory cache hits:  {self.memory_hits}",
            f"disk cache hits:    {self.disk_hits}",
            f"simulated:          {self.executed}"
            f"  ({self.exec_seconds:.1f}s of single-point simulation)",
            f"batch wall time:    {self.wall_seconds:.1f}s"
            f"  ({self.batches} batches, up to {self.max_jobs} jobs)",
            f"disk-cache hit rate: {100.0 * self.disk_hit_rate():.1f}%",
        ]
        if self.inflight_hits:
            lines.append(
                f"in-flight shares:   {self.inflight_hits}"
                "  (executed concurrently by another process)"
            )
        if self.corrupt_entries:
            lines.append(
                f"corrupt entries:    {self.corrupt_entries}  (quarantined)"
            )
        if self.executed and self.max_jobs > 1:
            lines.append(
                f"effective parallelism: {self.parallel_speedup():.2f}x"
            )
        if self.timings:
            slowest = sorted(self.timings, key=lambda t: -t[1])[:5]
            rendered = ", ".join(f"{lbl} {sec:.2f}s" for lbl, sec in slowest)
            lines.append(f"slowest points:     {rendered}")
        return lines

    def reset(self) -> None:
        self.__init__()


#: process-wide tallies; reset with :func:`reset_run_stats`
run_stats = ExecutionStats()


def reset_run_stats() -> None:
    run_stats.reset()


@dataclass(frozen=True)
class ObservabilityOptions(ShardObsSpec):
    """What per-run observability artifacts the harness should produce:
    the instrument recipe, which also configures every shard, plus where
    the artifacts go.

    Any enabled artifact forces the point to actually simulate (cache
    lookups and stores are bypassed): a cached result has no trace to
    give, and an instrumented run should not overwrite the pristine
    cached timing entry either.
    """

    out_dir: str = "results/obs"


@dataclass(frozen=True)
class CheckpointOptions:
    """Checkpointing at any cycle for every simulation point.

    Every ``every`` simulated cycles, each point's latest resumable
    state is published (atomically, durably) to
    ``<directory>/<run-fingerprint>.ckpt`` — content-addressed exactly
    like the result cache, so sweeps and single runs share one
    checkpoint directory without collisions.  With ``resume_from`` set,
    any point whose snapshot exists continues from the cycle it was cut
    at instead of starting over; the resumed result is byte-identical
    to an uninterrupted run (:mod:`repro.ckpt`).  ``resume_from`` may be
    the checkpoint directory (per-point snapshots are looked up by
    fingerprint) or one specific snapshot file — the latter fails
    loudly with :class:`~repro.ckpt.FingerprintMismatchError` if the
    point being run does not match the snapshot's stamped
    configuration.
    """

    directory: str = "results/ckpt"
    #: snapshot period in simulated cycles; ``None`` takes no snapshots
    #: (resume only)
    every: Optional[int] = None
    resume_from: Optional[str] = None

    def __post_init__(self) -> None:
        if self.every is not None and self.every < 1:
            raise ValueError(f"checkpoint period must be >= 1, got {self.every}")


@dataclass(frozen=True)
class RunContext:
    """Everything a run needs besides its points, passed explicitly.

    Frozen and picklable: :func:`run_many` ships it to its pool workers
    with every point, so workers see the same options whatever the
    multiprocessing start method.  Construction validates every option
    (bad values fail here, not once per point deep inside a worker) and
    drops options that enable nothing, so ``None`` means "off".
    """

    #: worker processes :func:`run_many` uses when none is passed
    jobs: int = 1
    #: the persistent result cache, also the cross-process claim point
    cache: Optional[ResultCache] = None
    observability: Optional[ObservabilityOptions] = None
    sharding: Optional[ShardingOptions] = None
    checkpointing: Optional[CheckpointOptions] = None
    #: ``SystemConfig`` field overrides applied to every point at
    #: normalization (the CLI's --topology/--bw-class); a mapping or
    #: (field, value) pairs, stored sorted
    system_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.observability is not None and not self.observability.active:
            object.__setattr__(self, "observability", None)
        if self.sharding is not None and not self.sharding.active:
            object.__setattr__(self, "sharding", None)
        overrides = tuple(sorted(dict(self.system_overrides).items()))
        if overrides:
            SystemConfig.default().with_overrides(**dict(overrides))  # validate
        object.__setattr__(self, "system_overrides", overrides)

    @classmethod
    def from_env(cls, **fields: object) -> "RunContext":
        """A context from ``REPRO_JOBS``, ``REPRO_CACHE_DIR`` and
        ``REPRO_SHARDS``.

        Unset variables keep the defaults (no disk cache, no sharding).
        ``fields`` given explicitly win and leave their variables unread.
        """
        env = os.environ
        if "jobs" not in fields:
            fields["jobs"] = int(env.get("REPRO_JOBS") or 1)
        if "cache" not in fields:
            cache_dir = env.get("REPRO_CACHE_DIR")
            fields["cache"] = ResultCache(cache_dir) if cache_dir else None
        if "sharding" not in fields:
            shards = env.get("REPRO_SHARDS")
            fields["sharding"] = ShardingOptions(n_shards=int(shards) if shards else 1)
        return cls(**fields)


#: the context used when a call passes none; entry points (the CLI, the
#: benchmark session) install theirs so the figures need no
#: context parameter
_installed = RunContext()


def install_context(ctx: RunContext) -> RunContext:
    """Make ``ctx`` the default context; returns the one it replaces."""
    global _installed
    previous, _installed = _installed, ctx
    return previous


def current_context() -> RunContext:
    """The installed default context."""
    return _installed


def _write_artifacts(
    options: ObservabilityOptions,
    obs: Observability,
    point: "ExperimentPoint",
    result: RunResult,
) -> None:
    """Dump the run's observability artifacts and note their paths."""
    out = Path(options.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{point.workload}-seed{point.seed}-{fingerprint(point)[:12]}"
    if obs.tracer.enabled:
        jsonl = out / f"{stem}.trace.jsonl"
        chrome = out / f"{stem}.trace.json"
        obs.tracer.to_jsonl(jsonl)
        obs.tracer.to_chrome(chrome)
        result.trace_path = str(jsonl)
        result.trace_chrome_path = str(chrome)
    if obs.metrics is not None:
        metrics = out / f"{stem}.metrics.jsonl"
        obs.metrics.to_jsonl(metrics)
        result.metrics_path = str(metrics)
    if obs.profiler is not None:
        profile = out / f"{stem}.profile.json"
        obs.profiler.to_json(profile)
        result.profile_path = str(profile)


#: the in-process memo, keyed by normalized point
_cache: Dict[ExperimentPoint, RunResult] = {}


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is left untouched)."""
    _cache.clear()


#: traces kept for the next points.  A grid expands workload -> variant
#: -> seed, so a variant's points reuse the traces its sibling variant
#: built when the grid has at most this many seeds (serving rounds have
#: two); each kept trace holds about 1 MB at the default scale
_TRACE_MEMO_SIZE = 2

#: the most recently used traces, keyed by (workload, n_gpus, scale,
#: seed), least recent first.  Sharing one trace between runs is sound
#: because no run mutates the trace it loads.
_traces: "OrderedDict[Tuple[str, int, Scale, int], WorkloadTrace]" = OrderedDict()
_traces_lock = threading.Lock()


def _trace(workload: str, n_gpus: int, scale: Scale, seed: int) -> WorkloadTrace:
    """The workload's trace, built or reused from :data:`_traces`."""
    key = (workload, n_gpus, scale, seed)
    with _traces_lock:
        trace = _traces.get(key)
        if trace is not None:
            _traces.move_to_end(key)
            return trace
    trace = get_workload(workload).build(n_gpus=n_gpus, scale=scale, seed=seed)
    with _traces_lock:
        _traces[key] = trace
        while len(_traces) > _TRACE_MEMO_SIZE:
            _traces.popitem(last=False)
    return trace


def _simulate(point: ExperimentPoint, ctx: RunContext) -> RunResult:
    # the node must be unreachable when the policy's exit collection
    # runs, so it lives only in _simulate_point's frame
    with collector_paused():
        return _simulate_point(point, ctx)


def _simulate_point(point: ExperimentPoint, ctx: RunContext) -> RunResult:
    point = point.normalized(ctx)
    system = point.system
    trace = _trace(point.workload, system.n_gpus, point.scale, point.seed)
    options = ctx.observability
    plan = ctx.sharding.resolve(system) if ctx.sharding is not None else None

    node = None
    checkpointer = None
    if ctx.checkpointing is not None:
        from repro import ckpt as _ckpt

        # the single engine snapshots as the 1-shard shape
        shape = plan or ShardingOptions(parallel=False)
        fp = _ckpt.run_fingerprint(
            system, point.netcrafter, point.seed, trace, n_shards=shape.n_shards
        )
        if ctx.checkpointing.every is not None:
            checkpointer = _ckpt.Checkpointer(
                path=Path(ctx.checkpointing.directory) / f"{fp}.ckpt",
                fingerprint=fp,
                every=ctx.checkpointing.every,
            )
        resume_from = ctx.checkpointing.resume_from
        if resume_from and Path(resume_from).is_dir():
            # per-point lookup in a checkpoint directory: points without
            # a snapshot simply start fresh
            resume_from = Path(resume_from) / f"{fp}.ckpt"
            resume_from = resume_from if resume_from.exists() else None
        # an explicit snapshot file must match this point — resume()
        # raises FingerprintMismatchError otherwise
        if resume_from:
            node = _ckpt.resume(
                resume_from,
                config=system,
                netcrafter=point.netcrafter,
                seed=point.seed,
                workload=trace,
                sharding=shape,
                obs_spec=options,
                checkpointer=checkpointer,
            )
    if node is None:
        node = build_node(system, point.netcrafter, point.seed, plan, options)
        node.load(trace)
        node._ckpt_hook = checkpointer
    result = node.run()
    if options is not None:
        obs = node.merged_obs() if isinstance(node, ShardedSystem) else node.obs
        _write_artifacts(options, obs, point, result)
    return result


def execute_point(
    point: ExperimentPoint, ctx: Optional[RunContext] = None
) -> Tuple[RunResult, float]:
    """Simulate one point unconditionally under ``ctx``, timing it.

    The public execution entry for front ends layering their own
    serving policy over the runner (the campaign server's worker pool,
    ``run_many``'s process-pool workers): no cache lookups, no stores,
    no in-flight registration — callers own those.  Picklable, so it can
    be shipped to a ``ProcessPoolExecutor`` directly; ``ctx`` defaults
    to the installed context of the process it runs in.
    """
    start = time.perf_counter()
    result = _simulate(point, _installed if ctx is None else ctx)
    return result, time.perf_counter() - start


def tally_execution(label: str, seconds: float) -> None:
    """Count one simulation that took ``seconds`` in :data:`run_stats`."""
    run_stats.executed += 1
    run_stats.exec_seconds += seconds
    run_stats.timings.append((label, seconds))


def _record(
    point: ExperimentPoint,
    result: RunResult,
    seconds: float,
    use_cache: bool,
    cache: Optional[ResultCache],
) -> None:
    """Tally an executed point, memoize it and publish it to ``cache``."""
    tally_execution(point.label(), seconds)
    if use_cache:
        _cache[point] = result
    if cache is not None:
        cache.put(point, result)


def _step(
    cache: ResultCache, point: ExperimentPoint, key: str, followed: bool = False
) -> Tuple[str, Optional[RunResult]]:
    """:func:`acquire` for ``point``, folded into the memo and run_stats.

    A result read before this process ever saw the point busy is a disk
    hit; one published by a peer it had to wait for is an in-flight share.
    """
    before = cache.corrupt
    status, result = acquire(cache, key)
    run_stats.corrupt_entries += cache.corrupt - before
    if result is not None:
        _cache[point] = result
        if status == "hit" and not followed:
            run_stats.disk_hits += 1
        else:
            run_stats.inflight_hits += 1
    return status, result


#: how often a waiter re-checks a peer's in-flight execution
_CLAIM_POLL_SECONDS = 0.05


def _serve(
    cache: ResultCache, point: ExperimentPoint, key: str, ctx: RunContext
) -> RunResult:
    """Follow ``point``, which a step found busy, until it is served.

    Steps until the result is published (by anyone), or this process
    wins the claim — its holder released it without a result, or the
    holder crashed and its stale claim is stolen — and executes it.
    Exactly-one-execution is therefore best effort under crashes, but a
    waiter can never return a wrong result and never deadlocks on a dead
    peer.
    """
    while True:
        status, result = _step(cache, point, key, followed=True)
        if status == "owned":
            try:
                result, seconds = execute_point(point, ctx)
                _record(point, result, seconds, True, cache)
            finally:
                cache.release(key)
            return result
        if status != "busy":
            return result
        time.sleep(_CLAIM_POLL_SECONDS)


def _executions(owned: List[ExperimentPoint], jobs: int, ctx: RunContext):
    """Yield ``(point, result, seconds)`` as the owned points finish."""
    if jobs > 1 and len(owned) > 1:
        # workers execute only; the cache stays with the claim holder
        worker_ctx = replace(ctx, cache=None)
        with ProcessPoolExecutor(max_workers=min(jobs, len(owned))) as pool:
            futures = {
                pool.submit(execute_point, point, worker_ctx): point
                for point in owned
            }
            for future in as_completed(futures):
                yield (futures[future], *future.result())
    else:
        for point in owned:
            yield (point, *execute_point(point, ctx))


def run_many(
    points: Sequence[ExperimentPoint],
    jobs: Optional[int] = None,
    use_cache: bool = True,
    ctx: Optional[RunContext] = None,
) -> List[RunResult]:
    """Run a batch of independent points, fanning misses out over workers.

    Returns results in ``points`` order.  Duplicate points are simulated
    once; cached points (in-process memo first, then the persistent disk
    cache when enabled) are never re-simulated.  With ``jobs > 1`` (by
    default ``ctx.jobs``) the remaining misses run on a
    ``ProcessPoolExecutor``; results are bit-identical to a serial pass
    because each point's simulation is a deterministic function of its
    configuration and ``ctx``.
    """
    batch_start = time.perf_counter()
    ctx = _installed if ctx is None else ctx
    jobs = ctx.jobs if jobs is None else max(1, int(jobs))
    use_cache = use_cache and ctx.observability is None
    cache = ctx.cache if use_cache else None
    normalized = [p.normalized(ctx) for p in points]
    run_stats.points += len(normalized)
    run_stats.batches += 1
    run_stats.max_jobs = max(run_stats.max_jobs, jobs)

    results: Dict[ExperimentPoint, Optional[RunResult]] = {}
    keys: Dict[ExperimentPoint, str] = {}
    owned: List[ExperimentPoint] = []
    following: List[ExperimentPoint] = []
    for point in normalized:
        if point in results:
            run_stats.memory_hits += 1  # duplicate within this batch
            continue
        cached = _cache.get(point) if use_cache else None
        if cached is not None:
            run_stats.memory_hits += 1
            results[point] = cached
            continue
        # cross-process dedupe: one claim step per miss in the shared
        # cache dir; points another process is executing are followed
        status = "owned"
        if cache is not None:
            keys[point] = fingerprint(point)
            status, cached = _step(cache, point, keys[point])
        results[point] = cached  # None holds the slot for duplicates
        if status == "owned":
            owned.append(point)
        elif status == "busy":
            following.append(point)

    executions = _executions(owned, jobs, ctx)
    try:
        for point, result, seconds in executions:
            _record(point, result, seconds, use_cache, cache)
            results[point] = result
            if cache is not None:
                # release per point so concurrent followers unblock early
                cache.release(keys[point])
    finally:
        executions.close()  # shuts the pool down now, not at collection
        if cache is not None:
            for point in owned:
                if results[point] is None:  # frees peers after a failure
                    cache.release(keys[point])
    for point in following:
        results[point] = _serve(cache, point, keys[point], ctx)

    run_stats.wall_seconds += time.perf_counter() - batch_start
    return [results[point] for point in normalized]
