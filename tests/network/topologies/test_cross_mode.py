"""Cross-mode bit-identity for every new fabric shape.

The sharding guarantee the mesh and ring always had — sequential-
windowed and process-parallel runs reproduce the single engine
byte-for-byte — must hold for each zoo topology, including the ones
with virtual switch nodes (star hub, fat-tree spines) that the last
shard owns.
"""

import pytest

from repro.bench.smoke import results_digest, topology_smoke_config
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

NEW_SHAPES = ("star", "fat_tree", "torus3d")


def _digest(config, node):
    trace = get_workload("gups").build(
        n_gpus=config.n_gpus, scale=Scale.tiny(), seed=0
    )
    node.load(trace)
    return results_digest([node.run().to_dict()])


def _single(config):
    return _digest(
        config,
        MultiGpuSystem(config=config, netcrafter=NetCrafterConfig.full(), seed=0),
    )


def _sharded(config, **kwargs):
    return _digest(
        config,
        ShardedSystem(
            config=config, netcrafter=NetCrafterConfig.full(), seed=0, **kwargs
        ),
    )


@pytest.mark.parametrize("topology", NEW_SHAPES)
def test_sequential_windowed_reproduces_the_single_engine(topology):
    config = topology_smoke_config(topology)
    assert _sharded(config, n_shards=2) == _single(config)


@pytest.mark.parametrize("topology", NEW_SHAPES)
def test_process_parallel_reproduces_the_single_engine(topology):
    config = topology_smoke_config(topology)
    assert _sharded(config, n_shards=2, parallel=True) == _single(config)


def test_narrow_window_reproduces_the_single_engine():
    # a 1-cycle inter-cluster link keeps every window at most 3 cycles
    # long, maximizing coordinator round-trips: the harshest ordering
    # test for virtual-node mailbox traffic
    config = topology_smoke_config("star").with_overrides(inter_link_latency=1)
    assert _sharded(config, n_shards=2) == _single(config)


def test_bandwidth_overrides_change_results_but_stay_shardable():
    base = topology_smoke_config("star")
    skewed = base.with_overrides(link_bw_overrides={"up": 4.0, "down": 64.0})
    assert _single(skewed) != _single(base)
    assert _sharded(skewed, n_shards=2) == _single(skewed)
