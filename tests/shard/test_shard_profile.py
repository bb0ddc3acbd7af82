"""Sharded profiles: the merged profile is a real ``EngineProfiler``.

Each shard profiles its own engine; the coordinator folds the shards'
profilers into one.  Per-callback dispatch counts are deterministic, so
the merged counts must be the per-shard counts summed, and the merged
event total must be the run's ``events_processed`` — in process-parallel
mode too, where the shard profilers cross the worker pipe.
"""

from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.obs import EngineProfiler, Observability
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs, lookahead W = 8
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
NC = NetCrafterConfig.full()


def _run(parallel):
    node = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=2,
        parallel=parallel,
        obs_spec=ShardObsSpec(profile=True),
    )
    node.load(get_workload("gups").build(n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0))
    return node, node.run()


def _counts(profile_doc):
    return Counter({row["callback"]: row["count"] for row in profile_doc["by_callback"]})


@pytest.fixture(scope="module")
def per_shard_counts():
    """Each in-process shard's own profile counts, in shard order."""
    node, _ = _run(parallel=False)
    return [_counts(handle.shard.obs.profiler.to_dict()) for handle in node._handles]


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_merged_profile_sums_the_shard_profiles(per_shard_counts, parallel):
    node, result = _run(parallel)
    merged = node.merged_obs()
    assert isinstance(merged, Observability)
    assert isinstance(merged.profiler, EngineProfiler)
    doc = merged.profiler.to_dict()
    assert doc["events"] == result.events_processed > 0
    # both shards dispatched work, and their counts add up key by key
    assert all(per_shard_counts)
    assert _counts(doc) == sum(per_shard_counts, Counter())
