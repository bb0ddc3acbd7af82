"""Fault injection must not break the sharded simulator's bit-identity.

The fault RNG is keyed on packet *content*, never on allocation order or
packet/flit IDs, and every fault timer is a local event on the shard
that owns the link — so a faulty run must digest identically whether it
executes on one engine, on sequential windowed shards, or in worker
processes.
"""

import pytest

from repro.bench.smoke import results_digest
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.faults.config import FaultConfig, FlapWindow
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

FAULTS = FaultConfig(
    ber=2e-4,
    drop_rate=0.01,
    flaps=(FlapWindow(200, 900, 0.25),),
    seed=7,
    rdma_timeout=512,
)
CONFIG = SystemConfig.default().with_overrides(
    n_clusters=4, inter_link_latency=8, faults=FAULTS
)


def _run(node):
    trace = get_workload("gups").build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )
    node.load(trace)
    return node.run()


@pytest.fixture(scope="module")
def single_engine():
    return _run(
        MultiGpuSystem(config=CONFIG, netcrafter=NetCrafterConfig.full(), seed=0)
    )


def test_the_reference_run_actually_faults(single_engine):
    f = single_engine.stats.faults
    assert f is not None and f.flits_corrupted > 0
    assert f.flits_dropped > 0
    assert f.flits_retransmitted > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_shards": 2},
        {"n_shards": 2, "parallel": True},
        {"n_shards": 4, "parallel": True},
    ],
    ids=["2-sequential", "2-parallel", "4-parallel"],
)
def test_faulty_run_is_shard_invariant(single_engine, kwargs):
    sharded = _run(
        ShardedSystem(
            config=CONFIG, netcrafter=NetCrafterConfig.full(), seed=0, **kwargs
        )
    )
    assert results_digest([sharded.to_dict()]) == results_digest(
        [single_engine.to_dict()]
    )


@pytest.mark.parametrize(
    "workload, scale",
    [("gups", Scale.small()), ("mt", Scale.tiny())],
    ids=["gups-small", "mt-tiny"],
)
def test_retries_in_flight_after_the_last_kernel_are_delivered(workload, scale):
    # with a short RDMA timeout, retry clones and their late answers are
    # still crossing the inter-cluster links when the last kernel ends;
    # the single engine runs them out, and the shards must deliver the
    # cross-shard part of that traffic too
    config = SystemConfig.default().with_overrides(
        faults=FaultConfig(ber=1e-4, drop_rate=0.01, seed=5, rdma_timeout=256)
    )
    trace = get_workload(workload).build(n_gpus=config.n_gpus, scale=scale, seed=0)
    payloads = []
    for node in (
        MultiGpuSystem(config=config, netcrafter=NetCrafterConfig.full(), seed=0),
        ShardedSystem(
            config=config, netcrafter=NetCrafterConfig.full(), seed=0, n_shards=2
        ),
    ):
        node.load(trace)
        payloads.append(node.run().to_dict())
    single, sharded = payloads
    assert single["stats"]["faults"]["__faults__"]["rdma_duplicate_responses"] > 0
    assert results_digest([sharded]) == results_digest([single])
