"""Sharded metrics: per-shard registration and the merged final sample.

Each shard registers the single-engine gauge set under an ``s<k>.``
prefix, restricted to the components it owns.  Summed over shards, the
cumulative inter-cluster columns of the final sample must reproduce the
single-engine final sample.
"""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.obs import MetricsRegistry, Observability
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs, lookahead W = 8
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
NC = NetCrafterConfig.full()
INTERVAL = 500
N_SHARDS = 2
CUMULATIVE = ("inter.wire_bytes", "inter.useful_bytes", "inter.flits")


def _trace():
    return get_workload("gups").build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )


@pytest.fixture(scope="module")
def single():
    obs = Observability(metrics=MetricsRegistry(INTERVAL))
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0, obs=obs)
    node.load(_trace())
    return node.run(), obs.metrics


@pytest.fixture(scope="module")
def sharded():
    node = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=N_SHARDS,
        obs_spec=ShardObsSpec(metrics_interval=INTERVAL),
    )
    node.load(_trace())
    return node.run(), node.merged_obs().metrics


def _unprefixed(names, shard):
    prefix = f"s{shard}."
    return {name[len(prefix):] for name in names if name.startswith(prefix)}


def test_merged_names_are_the_prefixed_single_engine_names(single, sharded):
    single_names = set(single[1].names())
    merged = sharded[1].names()
    per_shard = [_unprefixed(merged, k) for k in range(N_SHARDS)]
    # every merged name carries exactly one shard prefix, with no duplicates
    assert len(merged) == len(set(merged)) == sum(len(s) for s in per_shard)
    assert set().union(*per_shard) == single_names
    # node-wide gauges appear once per shard; each cluster queue belongs
    # to exactly one shard (the one owning its egress link)
    node_wide = {name for name in single_names if not name.startswith("cq.")}
    for names in per_shard:
        assert node_wide <= names
    queues = [names - node_wide for names in per_shard]
    assert not set.intersection(*queues)


def test_final_sample_sums_to_the_single_engine(single, sharded):
    single_result, single_metrics = single
    sharded_result, merged = sharded
    final = merged.samples[-1]
    assert final["cycle"] == single_metrics.samples[-1]["cycle"]
    assert final["cycle"] == sharded_result.cycles == single_result.cycles
    for column in CUMULATIVE:
        total = sum(final[f"s{k}.{column}"] for k in range(N_SHARDS))
        assert total == single_metrics.latest(column) > 0, column


def test_events_processed_column_matches_the_result(single, sharded):
    """The engine counter ends at each front end's reported total.

    The totals themselves differ between front ends: the single engine
    dispatches kernel-boundary quiesce polls that the coordinator
    resolves analytically, and every shard runs its own sampler.
    """
    single_result, single_metrics = single
    sharded_result, merged = sharded
    assert single_metrics.latest("engine.events_processed") == (
        single_result.events_processed
    )
    final = merged.samples[-1]
    assert sum(
        final[f"s{k}.engine.events_processed"] for k in range(N_SHARDS)
    ) == sharded_result.events_processed


def test_series_stop_at_the_finish_cycle(sharded):
    result, merged = sharded
    cycles = [row["cycle"] for row in merged.samples]
    assert cycles == sorted(set(cycles))
    assert cycles[0] == 0 and cycles[-1] == result.cycles
