"""Bit-identity of the sharded simulator against the single engine.

The tentpole guarantee: for any inter-cluster link latency (the
lookahead that sizes every window) and any shard count dividing the
cluster count, sequential-windowed and process-parallel runs reproduce
the single-engine results byte-for-byte.  The digest used here is the
same one the benchmark suite and CI gates track.
"""

import pytest

from repro.bench.smoke import results_digest
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs, lookahead W = 8
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
WINDOW = CONFIG.effective_inter_link_latency
#: the same node with a 1-cycle inter-cluster link: windows of at most
#: 3 cycles, the most coordinator round-trips per simulated cycle
NARROW = CONFIG.with_overrides(inter_link_latency=1)


def _run(workload: str, node) -> str:
    trace = get_workload(workload).build(
        n_gpus=node.config.n_gpus, scale=Scale.tiny(), seed=0
    )
    node.load(trace)
    return results_digest([node.run().to_dict()])


def _single_digest(workload: str = "gups", config=CONFIG) -> str:
    return _run(
        workload,
        MultiGpuSystem(config=config, netcrafter=NetCrafterConfig.full(), seed=0),
    )


def _sharded_digest(workload: str = "gups", config=CONFIG, **kwargs) -> str:
    return _run(
        workload,
        ShardedSystem(
            config=config, netcrafter=NetCrafterConfig.full(), seed=0, **kwargs
        ),
    )


class TestSequentialWindowed:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_counts_reproduce_the_single_engine(self, n_shards):
        assert _sharded_digest(n_shards=n_shards) == _single_digest()

    @pytest.mark.parametrize("latency", [1, WINDOW // 2, WINDOW])
    def test_window_sizes_reproduce_the_single_engine(self, latency):
        config = CONFIG.with_overrides(inter_link_latency=latency)
        assert _sharded_digest(config=config, n_shards=2) == _single_digest(
            config=config
        )

    @pytest.mark.parametrize("workload", ["mt", "mis"])
    def test_other_workloads_reproduce_the_single_engine(self, workload):
        assert _sharded_digest(workload, n_shards=4) == _single_digest(workload)

    def test_baseline_variant_reproduces_the_single_engine(self):
        single = _run(
            "gups",
            MultiGpuSystem(
                config=CONFIG, netcrafter=NetCrafterConfig.baseline(), seed=0
            ),
        )
        sharded = _run(
            "gups",
            ShardedSystem(
                config=CONFIG,
                netcrafter=NetCrafterConfig.baseline(),
                seed=0,
                n_shards=2,
            ),
        )
        assert sharded == single


class TestProcessParallel:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_worker_processes_reproduce_the_single_engine(self, n_shards):
        assert (
            _sharded_digest(n_shards=n_shards, parallel=True) == _single_digest()
        )

    def test_parallel_matches_sequential_at_narrow_window(self):
        single = _single_digest(config=NARROW)
        assert _sharded_digest(config=NARROW, n_shards=2, parallel=True) == single
        assert _sharded_digest(config=NARROW, n_shards=2) == single


class TestValidation:
    def test_shards_must_divide_clusters(self):
        with pytest.raises(ValueError):
            ShardedSystem(config=CONFIG, n_shards=3)

    def test_fixed_windows_are_refused(self):
        with pytest.raises(ValueError):
            ShardedSystem(config=CONFIG, n_shards=2, adaptive=False)
