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

Every lookup and execution is tallied in :data:`run_stats` so the CLI
and benchmark harness can report per-point timing, cache effectiveness,
and parallel speedup.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import ResultCache, fingerprint
from repro.gpu.system import MultiGpuSystem
from repro.obs import Observability
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec
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


@dataclass(frozen=True)
class ExperimentPoint:
    """One independent simulation point: a (workload, configuration) tuple.

    ``None`` config fields mean "the default"; :meth:`normalized` fills
    them in so equal points always hash to the same cache key.
    """

    workload: str
    system: Optional[SystemConfig] = None
    netcrafter: Optional[NetCrafterConfig] = None
    scale: Optional[Scale] = None
    seed: int = 0

    def normalized(self) -> "ExperimentPoint":
        system = self.system or SystemConfig.default()
        if _system_overrides:
            # global topology/bandwidth overrides (the CLI's --topology /
            # --bw-class) reshape every point, explicit systems included;
            # idempotent, so re-normalizing cannot double-apply
            system = system.with_overrides(**_system_overrides)
        if (
            system is self.system
            and self.netcrafter is not None
            and self.scale is not None
        ):
            return self
        return ExperimentPoint(
            workload=self.workload,
            system=system,
            netcrafter=self.netcrafter or NetCrafterConfig.baseline(),
            scale=self.scale or Scale.small(),
            seed=self.seed,
        )

    def key(self) -> tuple:
        """In-process memo key (the full normalized configuration)."""
        p = self.normalized()
        return (p.workload, p.system, p.netcrafter, p.scale, p.seed)

    def label(self) -> str:
        p = self.normalized()
        return f"{p.workload}/seed{p.seed}"


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
class ObservabilityOptions:
    """What per-run observability artifacts the harness should produce.

    Any enabled artifact forces the point to actually simulate (cache
    lookups and stores are bypassed): a cached result has no trace to
    give, and an instrumented run should not overwrite the pristine
    cached timing entry either.
    """

    trace: bool = False
    #: keep every Nth packet lifecycle (1 = all)
    trace_sample: int = 1
    #: metrics snapshot period in cycles; None disables the time-series
    metrics_interval: Optional[int] = None
    profile: bool = False
    out_dir: str = "results/obs"

    @property
    def active(self) -> bool:
        return self.trace or self.metrics_interval is not None or self.profile


@dataclass(frozen=True)
class CheckpointOptions:
    """Kernel-boundary checkpointing for every subsequent simulation point.

    Each point's latest resumable state is published (atomically,
    durably) to ``<directory>/<run-fingerprint>.ckpt`` — content-
    addressed exactly like the result cache, so sweeps and single runs
    share one checkpoint directory without collisions.  With
    ``resume_from`` set, any point whose snapshot exists continues from
    its last checkpointed kernel boundary instead of starting over; the
    resumed result is byte-identical to an uninterrupted run
    (:mod:`repro.ckpt`).  ``resume_from`` may be the checkpoint
    directory (per-point snapshots are looked up by fingerprint) or one
    specific snapshot file — the latter fails loudly with
    :class:`~repro.ckpt.FingerprintMismatchError` if the point being
    run does not match the snapshot's stamped configuration.
    """

    directory: str = "results/ckpt"
    #: snapshot every N completed kernels (the final boundary always)
    every: int = 1
    resume_from: Optional[str] = None


#: module-level so forked run_many workers inherit it
_ckpt_options: Optional[CheckpointOptions] = None


def set_checkpointing(options: Optional[CheckpointOptions]) -> None:
    """Checkpoint/resume every subsequent point (``None`` disables)."""
    global _ckpt_options
    _ckpt_options = options


def checkpoint_options() -> Optional[CheckpointOptions]:
    """The active checkpoint options, or ``None`` when disabled."""
    return _ckpt_options


@dataclass(frozen=True)
class ShardingOptions:
    """How each simulation point is split across cluster shards.

    Sharding is *intra-run* parallelism: one simulation is decomposed
    into per-cluster shards advancing in conservative lookahead windows
    (:class:`~repro.shard.coordinator.ShardedSystem`).  Results are
    byte-identical to the single-engine run, so the result cache stays
    shared between modes and the choice is purely about wall-clock.

    Points whose system config the shard count does not divide fall back
    to the single engine (identical results) rather than failing a whole
    figure sweep.
    """

    n_shards: int = 1
    #: lookahead window in cycles; ``None`` means the maximum safe value
    #: (the inter-cluster link latency), clamped per-point when smaller
    window: Optional[int] = None
    #: ``None`` = processes exactly when ``n_shards > 1``; ``False``
    #: forces sequential-windowed mode (debugging, digest comparisons)
    parallel: Optional[bool] = None
    #: adaptive lookahead: stretch each shard's window from replicated
    #: simulation state instead of the fixed size (byte-identical
    #: results, so cache keys are unaffected); ``window`` is ignored
    adaptive: bool = False

    @property
    def active(self) -> bool:
        return self.n_shards > 1 or self.window is not None or self.adaptive

    def use_processes(self) -> bool:
        return self.n_shards > 1 if self.parallel is None else self.parallel

    @classmethod
    def from_env(cls) -> Optional["ShardingOptions"]:
        """Honour ``REPRO_SHARDS`` / ``REPRO_WINDOW`` /
        ``REPRO_ADAPTIVE_WINDOW`` (all unset -> None)."""
        shards = os.environ.get("REPRO_SHARDS")
        window = os.environ.get("REPRO_WINDOW")
        adaptive = os.environ.get("REPRO_ADAPTIVE_WINDOW", "").lower() in (
            "1",
            "true",
            "yes",
        )
        if not shards and not window and not adaptive:
            return None
        return cls(
            n_shards=int(shards) if shards else 1,
            window=int(window) if window else None,
            adaptive=adaptive,
        )


_cache: Dict[tuple, RunResult] = {}
_default_jobs = 1
_disk_cache: Optional[ResultCache] = None
#: module-level so forked run_many workers inherit it
_obs_options: Optional[ObservabilityOptions] = None
#: module-level for the same reason; seeded from the environment
_sharding_options: Optional[ShardingOptions] = ShardingOptions.from_env()
#: SystemConfig field overrides applied to every point at normalization
#: (the CLI's --topology/--bw-class); module-level so forked run_many
#: workers inherit it, though points are normalized before pickling
_system_overrides: Dict[str, object] = {}


def set_system_overrides(**overrides: object) -> None:
    """Apply ``SystemConfig`` field overrides to every subsequent point.

    Used by the CLI's topology flags so a whole figure sweep can be
    re-run on a different fabric (``inter_topology``, per-class
    ``link_bw_overrides``, ...).  Overrides are validated eagerly
    against the default config so bad values fail here, not deep inside
    a worker.  Call with no arguments to clear.
    """
    global _system_overrides
    if overrides:
        SystemConfig.default().with_overrides(**overrides)  # validate
    _system_overrides = dict(overrides)


def system_overrides() -> Dict[str, object]:
    """The active global system overrides (empty when disabled)."""
    return dict(_system_overrides)


def set_sharding(options: Optional[ShardingOptions]) -> None:
    """Shard every subsequent simulation point (``None`` disables)."""
    global _sharding_options
    _sharding_options = (
        options if options is not None and options.active else None
    )


def sharding_options() -> Optional[ShardingOptions]:
    """The active sharding options, or ``None`` when disabled."""
    return _sharding_options


def set_observability(options: Optional[ObservabilityOptions]) -> None:
    """Produce trace/metrics/profile artifacts for every subsequent run.

    Pass ``None`` (or options with nothing enabled) to turn it back off.
    """
    global _obs_options
    _obs_options = options if options is not None and options.active else None


def observability_options() -> Optional[ObservabilityOptions]:
    """The active observability options, or ``None`` when disabled."""
    return _obs_options


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


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is left untouched)."""
    _cache.clear()


def set_default_jobs(jobs: int) -> None:
    """Worker-process count :func:`run_many` uses when none is passed."""
    global _default_jobs
    _default_jobs = max(1, int(jobs))


def set_cache_dir(path: Optional[str]) -> None:
    """Enable the persistent disk cache rooted at ``path`` (None disables)."""
    global _disk_cache
    _disk_cache = ResultCache(path) if path else None


def disk_cache() -> Optional[ResultCache]:
    """The active persistent cache, or ``None`` when disabled."""
    return _disk_cache


def _simulate(point: ExperimentPoint) -> RunResult:
    point = point.normalized()
    trace = get_workload(point.workload).build(
        n_gpus=point.system.n_gpus, scale=point.scale, seed=point.seed
    )
    options = _obs_options
    sharding = _sharding_options
    use_shards = (
        sharding is not None
        and sharding.active
        and point.system.n_clusters % sharding.n_shards == 0
    )
    if use_shards:
        lookahead = point.system.effective_inter_link_latency
        n_shards = sharding.n_shards
        eff_window = (
            None if sharding.window is None else min(sharding.window, lookahead)
        )
        parallel = sharding.use_processes()
        adaptive = sharding.adaptive
    else:
        n_shards, eff_window, parallel, adaptive = 1, None, False, False
    spec = (
        ShardObsSpec(
            trace=options.trace,
            trace_sample=options.trace_sample,
            metrics_interval=options.metrics_interval,
            profile=options.profile,
        )
        if options is not None
        else None
    )

    checkpointer = None
    if _ckpt_options is not None:
        from repro import ckpt as _ckpt

        fp = _ckpt.run_fingerprint(
            point.system,
            point.netcrafter,
            point.seed,
            trace,
            n_shards=n_shards,
            window=eff_window,
        )
        snapshot_path = Path(_ckpt_options.directory) / f"{fp}.ckpt"
        checkpointer = _ckpt.Checkpointer(
            path=snapshot_path, fingerprint=fp, every=_ckpt_options.every
        )
        resume_path = None
        if _ckpt_options.resume_from:
            source = Path(_ckpt_options.resume_from)
            if source.is_dir():
                # per-point lookup in a checkpoint directory: points
                # without a snapshot simply start fresh
                candidate = source / f"{fp}.ckpt"
                if candidate.exists():
                    resume_path = candidate
            else:
                # an explicit snapshot file must match this point —
                # resume() raises FingerprintMismatchError otherwise
                resume_path = source
        if resume_path is not None:
            return _ckpt.resume(
                resume_path,
                config=point.system,
                netcrafter=point.netcrafter,
                seed=point.seed,
                workload=trace,
                n_shards=n_shards,
                window=eff_window,
                parallel=parallel,
                adaptive=adaptive,
                obs_spec=spec,
                checkpointer=checkpointer,
            )

    if use_shards:
        node = ShardedSystem(
            config=point.system,
            netcrafter=point.netcrafter,
            seed=point.seed,
            n_shards=n_shards,
            window=eff_window,
            parallel=parallel,
            adaptive=adaptive,
            obs_spec=spec,
        )
        node.load(trace)
        node._ckpt_hook = checkpointer
        result = node.run()
        if options is not None:
            _write_artifacts(options, node.merged_obs(), point, result)
        return result
    obs = spec.build() if spec is not None else None
    node = MultiGpuSystem(
        config=point.system, netcrafter=point.netcrafter, seed=point.seed, obs=obs
    )
    node.load(trace)
    node._ckpt_hook = checkpointer
    result = node.run()
    if obs is not None:
        _write_artifacts(options, obs, point, result)
    return result


def execute_point(point: ExperimentPoint) -> Tuple[RunResult, float]:
    """Simulate one point unconditionally, timing it.

    The public execution entry for front ends layering their own
    serving policy over the runner (the campaign server's worker pool,
    ``run_many``'s process-pool workers): no cache lookups, no stores,
    no in-flight registration — callers own those.  Picklable, so it can
    be shipped to a ``ProcessPoolExecutor`` directly.
    """
    start = time.perf_counter()
    result = _simulate(point)
    return result, time.perf_counter() - start


def _record_executed(point: ExperimentPoint, result: RunResult, seconds: float) -> None:
    run_stats.executed += 1
    run_stats.exec_seconds += seconds
    run_stats.timings.append((point.label(), seconds))


def _disk_get(point: ExperimentPoint) -> Optional[RunResult]:
    """Disk-cache read that folds quarantine tallies into run_stats."""
    before = _disk_cache.corrupt
    loaded = _disk_cache.get(point)
    run_stats.corrupt_entries += _disk_cache.corrupt - before
    return loaded


def _lookup(point: ExperimentPoint, use_cache: bool) -> Optional[RunResult]:
    """Memory then disk lookup; promotes disk hits into the memo."""
    if not use_cache:
        return None
    key = point.key()
    cached = _cache.get(key)
    if cached is not None:
        run_stats.memory_hits += 1
        return cached
    if _disk_cache is not None:
        loaded = _disk_get(point)
        if loaded is not None:
            run_stats.disk_hits += 1
            _cache[key] = loaded
            return loaded
    return None


def _store(point: ExperimentPoint, result: RunResult, use_cache: bool) -> None:
    if not use_cache:
        return
    _cache[point.key()] = result
    if _disk_cache is not None:
        _disk_cache.put(point, result)


#: how often a waiter re-checks a peer's in-flight execution
_CLAIM_POLL_SECONDS = 0.05


def _claims_active(use_cache: bool) -> bool:
    """Cross-process claims engage exactly when the disk cache does."""
    return use_cache and _disk_cache is not None


def _resolve_in_flight(point: ExperimentPoint, use_cache: bool) -> RunResult:
    """Serve a point someone else claimed: wait, or take over.

    Polls the shared cache dir until the claim holder publishes the
    result (counted as an in-flight share), the claim goes stale (the
    holder crashed — steal it and execute), or the claim is released
    without a result (the holder failed or ran uncached — claim and
    execute).  Exactly-one-execution is therefore best effort under
    crashes, but a waiter can never return a wrong result and never
    deadlocks on a dead peer.
    """
    key = fingerprint(point)
    while True:
        loaded = _disk_get(point)
        if loaded is not None:
            run_stats.inflight_hits += 1
            _cache[point.key()] = loaded
            return loaded
        if _disk_cache.claim(key):
            try:
                # the peer may have published between the poll and the
                # claim win; prefer its result over a re-execution
                loaded = _disk_get(point)
                if loaded is not None:
                    run_stats.inflight_hits += 1
                    _cache[point.key()] = loaded
                    return loaded
                result, seconds = execute_point(point)
                _record_executed(point, result, seconds)
                _store(point, result, use_cache)
            finally:
                _disk_cache.release(key)
            return result
        time.sleep(_CLAIM_POLL_SECONDS)


def run_one(
    workload: str,
    system: Optional[SystemConfig] = None,
    netcrafter: Optional[NetCrafterConfig] = None,
    scale: Optional[Scale] = None,
    seed: int = 0,
    use_cache: bool = True,
) -> RunResult:
    """Simulate one (workload, configuration) point."""
    point = ExperimentPoint(
        workload=workload, system=system, netcrafter=netcrafter, scale=scale, seed=seed
    ).normalized()
    use_cache = use_cache and _obs_options is None
    run_stats.points += 1
    cached = _lookup(point, use_cache)
    if cached is not None:
        return cached
    if _claims_active(use_cache):
        key = fingerprint(point)
        if not _disk_cache.claim(key):
            return _resolve_in_flight(point, use_cache)
        try:
            result, seconds = execute_point(point)
            _record_executed(point, result, seconds)
            _store(point, result, use_cache)
        finally:
            _disk_cache.release(key)
        return result
    result, seconds = execute_point(point)
    _record_executed(point, result, seconds)
    _store(point, result, use_cache)
    return result


def run_many(
    points: Sequence[ExperimentPoint],
    jobs: Optional[int] = None,
    use_cache: bool = True,
) -> List[RunResult]:
    """Run a batch of independent points, fanning misses out over workers.

    Returns results in ``points`` order.  Duplicate points are simulated
    once; cached points (in-process memo first, then the persistent disk
    cache when enabled) are never re-simulated.  With ``jobs > 1`` the
    remaining misses run on a ``ProcessPoolExecutor``; results are
    bit-identical to a serial pass because each point's simulation is a
    deterministic function of its configuration.
    """
    batch_start = time.perf_counter()
    jobs = _default_jobs if jobs is None else max(1, int(jobs))
    use_cache = use_cache and _obs_options is None
    normalized = [p.normalized() for p in points]
    run_stats.points += len(normalized)
    run_stats.batches += 1
    run_stats.max_jobs = max(run_stats.max_jobs, jobs)

    results: Dict[tuple, RunResult] = {}
    pending: List[ExperimentPoint] = []
    for point in normalized:
        key = point.key()
        if key in results:
            run_stats.memory_hits += 1  # duplicate within this batch
            continue
        cached = _lookup(point, use_cache)
        if cached is not None:
            results[key] = cached
            continue
        results[key] = None  # placeholder so duplicates don't re-queue
        pending.append(point)

    if pending:
        # cross-process dedupe: claim each miss in the shared cache dir;
        # points another process is already executing are *followed*
        # (poll for its published result) instead of re-executed
        if _claims_active(use_cache):
            owned = [p for p in pending if _disk_cache.claim(fingerprint(p))]
            owned_keys = {p.key() for p in owned}
            following = [p for p in pending if p.key() not in owned_keys]
        else:
            owned, following = pending, []
        try:
            if jobs > 1 and len(owned) > 1:
                with ProcessPoolExecutor(max_workers=min(jobs, len(owned))) as pool:
                    futures = {
                        pool.submit(execute_point, point): point for point in owned
                    }
                    # publish (and release the claim) per point as it
                    # finishes so concurrent followers unblock early
                    for future in as_completed(futures):
                        point = futures[future]
                        result, seconds = future.result()
                        _record_executed(point, result, seconds)
                        _store(point, result, use_cache)
                        if _claims_active(use_cache):
                            _disk_cache.release(fingerprint(point))
                        results[point.key()] = result
            else:
                for point in owned:
                    result, seconds = execute_point(point)
                    _record_executed(point, result, seconds)
                    _store(point, result, use_cache)
                    if _claims_active(use_cache):
                        _disk_cache.release(fingerprint(point))
                    results[point.key()] = result
        finally:
            if _claims_active(use_cache):
                for point in owned:  # idempotent; frees peers after a crash
                    _disk_cache.release(fingerprint(point))
        for point in following:
            results[point.key()] = _resolve_in_flight(point, use_cache)

    run_stats.wall_seconds += time.perf_counter() - batch_start
    return [results[point.key()] for point in normalized]


def run_batch(
    exp: ExperimentScale,
    combos: Iterable[Tuple[str, Optional[SystemConfig], Optional[NetCrafterConfig]]],
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """Batch ``(workload, system, netcrafter)`` combos at ``exp``'s scale.

    The declare-points-up-front entry used by every figure/ablation
    driver: the full point set goes through :func:`run_many` (parallel
    fan-out + caches), after which the driver's per-series ``run_one``
    lookups are pure memo hits.
    """
    points = [
        ExperimentPoint(
            workload=workload,
            system=system,
            netcrafter=netcrafter,
            scale=exp.scale,
            seed=exp.seed,
        )
        for workload, system, netcrafter in combos
    ]
    return run_many(points, jobs=jobs)


def prefetch_variants(
    exp: ExperimentScale,
    variants: Sequence[Tuple[Optional[SystemConfig], Optional[NetCrafterConfig]]],
    workloads: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """Batch every ``(system, netcrafter)`` variant across the workload set.

    Convenience over :func:`run_batch` for the common driver shape "the
    same config variants for every workload".
    """
    names = workloads if workloads is not None else exp.workload_names()
    return run_batch(
        exp,
        [(name, system, netcrafter) for name in names for system, netcrafter in variants],
        jobs=jobs,
    )


def run_pair(
    workload: str,
    variant: NetCrafterConfig,
    system: Optional[SystemConfig] = None,
    scale: Optional[Scale] = None,
    seed: int = 0,
) -> Tuple[RunResult, RunResult]:
    """(baseline, variant) results for a workload under one system config."""
    base = run_one(workload, system=system, scale=scale, seed=seed)
    out = run_one(workload, system=system, netcrafter=variant, scale=scale, seed=seed)
    return base, out
