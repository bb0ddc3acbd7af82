"""Property test: sharded runs are byte-identical to the single engine.

Each shard's window boundary is derived from deterministically
replicated simulation state and sized by the inter-cluster link latency
``L``, so for *every* combination of latency, shard count, drive mode
(sequential-windowed vs process-parallel), fabric topology, and
workload, the sharded run must reproduce the single-engine digest.

Hypothesis samples the cross product ``latency {1, W/2, W} x shards
{1, 2, 4} x {sequential, parallel} x {mesh, star} x {gups, ar_ring}``;
the pinned examples cover the corners the acceptance gate names
(collective traffic on both fabrics, both drive modes, extreme
latencies — at ``L = 1`` every window spans at most 3 cycles).  Digests
are memoized per configuration so repeated draws of the same reference
run cost nothing.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.smoke import results_digest
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs, widest lookahead W = 8 (4 shards must divide
#: clusters)
W = 8
_BASE = SystemConfig.default().with_overrides(n_clusters=4)

_digest_cache = {}


def _digest(topology, workload, latency, **kwargs):
    """Single-engine digest without ``kwargs``, sharded digest with them."""
    key = (topology, workload, latency, tuple(sorted(kwargs.items())))
    digest = _digest_cache.get(key)
    if digest is None:
        config = _BASE.with_overrides(
            inter_link_latency=latency, inter_topology=topology
        )
        netcrafter = NetCrafterConfig.full()
        if kwargs:
            node = ShardedSystem(config=config, netcrafter=netcrafter, seed=0, **kwargs)
        else:
            node = MultiGpuSystem(config=config, netcrafter=netcrafter, seed=0)
        trace = get_workload(workload).build(
            n_gpus=config.n_gpus, scale=Scale.tiny(), seed=0
        )
        node.load(trace)
        digest = results_digest([node.run().to_dict()])
        _digest_cache[key] = digest
    return digest


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    latency=st.sampled_from([1, W // 2, W]),
    n_shards=st.sampled_from([1, 2, 4]),
    parallel=st.booleans(),
    topology=st.sampled_from(["mesh", "star"]),
    workload=st.sampled_from(["gups", "ar_ring"]),
)
@example(latency=1, n_shards=2, parallel=True, topology="mesh", workload="gups")
@example(latency=W, n_shards=4, parallel=False, topology="mesh", workload="gups")
@example(
    latency=W // 2, n_shards=2, parallel=True, topology="star", workload="ar_ring"
)
@example(
    latency=1, n_shards=4, parallel=False, topology="star", workload="ar_ring"
)
@example(latency=1, n_shards=1, parallel=False, topology="mesh", workload="ar_ring")
def test_sharded_matches_single_engine(
    latency, n_shards, parallel, topology, workload
):
    single = _digest(topology, workload, latency)
    sharded = _digest(
        topology, workload, latency, n_shards=n_shards, parallel=parallel
    )
    assert sharded == single, (
        f"sharded run diverged from the single engine at latency {latency} "
        f"({n_shards} shard(s), parallel={parallel}, {topology}, {workload})"
    )
