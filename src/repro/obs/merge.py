"""Merge per-shard instruments into one :class:`~repro.obs.Observability`.

Every shard of a sharded run carries its own tracer, metrics registry
and profiler, and hands them back with its ``finish`` reply.
:func:`merge_observability` folds them into a plain
:class:`~repro.obs.Observability` of real :class:`EventTracer`,
:class:`MetricsRegistry` and :class:`EngineProfiler` objects, so the
experiment runner's artifact writer works unchanged on sharded runs and
``python -m repro.obs.validate`` accepts the merged output.

Ordering contract: merged trace records are sorted by ``(cycle,
shard_index, position)``.  Within a shard, emission order is preserved
(the position tiebreak), and a flit's lifecycle never spans shards: a
boundary flit's records, ``wire_start`` through ``crc_ok``/``corrupt``
and ``deliver``, are all emitted by the sending shard — the link emits
the last three at send time, stamped with the arrival cycle, at least
``1 + link latency`` cycles after its ``wire_start``.

Shard registries prefix every metric name with ``s<shard>.``, so the
union of names (in shard order) is collision-free and each merged
sample is the union of the shards' same-cycle samples.  Profiles sum
per-callback dispatch counts and wall time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import EngineProfiler
from repro.obs.tracer import NULL_TRACER, EventTracer, NullTracer


def merge_traces(tracers: List) -> Union[EventTracer, NullTracer]:
    """Fold shard tracers (in shard order) into one :class:`EventTracer`.

    Returns :data:`NULL_TRACER` when no shard traced.  The merged
    tracer's ring holds every shard's records; ``dropped`` sums the
    shards' ring overflows (a positive sum flags the merged trace as
    partial, which the validator honours).
    """
    tagged = []
    sample = 1
    dropped = 0
    traced = False
    for shard_index, tracer in enumerate(tracers):
        if not tracer.enabled:
            continue
        traced = True
        sample = tracer.sample
        dropped += tracer.dropped
        for position, record in enumerate(tracer.events()):
            tagged.append((record["cycle"], shard_index, position, record))
    if not traced:
        return NULL_TRACER
    tagged.sort(key=lambda entry: entry[:3])
    merged = EventTracer(sample=sample, ring_capacity=max(1, len(tagged)))
    merged._events.extend(entry[3] for entry in tagged)
    merged.emitted = len(tagged) + dropped
    return merged


def merge_metrics(registries: List[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Join shard series on the sample cycle; ``None`` when metrics were off.

    The merged registry has names but no sources: it holds the joined
    series only, and never samples.
    """
    if not registries:
        return None
    by_cycle: Dict[int, dict] = {}
    for registry in registries:
        for row in registry.samples:
            joined = by_cycle.setdefault(int(row["cycle"]), {"cycle": row["cycle"]})
            joined.update(row)
    merged = MetricsRegistry(registries[0].interval)
    merged._sources = dict.fromkeys(
        name for registry in registries for name in registry.names()
    )
    merged.samples = [by_cycle[cycle] for cycle in sorted(by_cycle)]
    return merged


def merge_profiles(profilers: List[EngineProfiler]) -> Optional[EngineProfiler]:
    """Sum shard profiles per callback; ``None`` when profiling was off."""
    if not profilers:
        return None
    merged = EngineProfiler()
    for profiler in profilers:
        merged.events += profiler.events
        merged.wall_seconds += profiler.wall_seconds
        for key, count, seconds in profiler.hotspots():
            entry = merged.by_key.setdefault(key, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
    return merged


def merge_observability(bundles: List[Observability]) -> Observability:
    """One bundle from the shards' bundles, given in shard order."""
    return Observability(
        tracer=merge_traces([obs.tracer for obs in bundles]),
        metrics=merge_metrics(
            [obs.metrics for obs in bundles if obs.metrics is not None]
        ),
        profiler=merge_profiles(
            [obs.profiler for obs in bundles if obs.profiler is not None]
        ),
    )
