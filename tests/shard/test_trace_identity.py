"""Sampled traces are identical across drive modes, IDs included.

Packet IDs are minted by each GPU's RDMA engine and flit IDs by each
egress controller, and sampling follows the requester-table tag, so a
sharded run's merged trace holds exactly the single-engine run's records:
the same multiset, the same packet and flit numbers.  Both must also pass
the trace validator.
"""

import json

import pytest

from repro.bench.smoke import topology_smoke_config
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.faults.config import FaultConfig
from repro.obs.schema import validate_records
from repro.shard.build import ShardingOptions, build_node
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

SAMPLE = 4


def _records(config, workload, sharding):
    node = build_node(
        config,
        NetCrafterConfig.full(),
        0,
        sharding,
        ShardObsSpec(trace=True, trace_sample=SAMPLE),
    )
    node.load(
        get_workload(workload).build(n_gpus=config.n_gpus, scale=Scale.tiny(), seed=0)
    )
    node.run()
    obs = node.merged_obs() if isinstance(node, ShardedSystem) else node.obs
    return obs.tracer.events()


def _multiset(records):
    return sorted(json.dumps(record, sort_keys=True) for record in records)


FAULTED = SystemConfig.default().with_overrides(
    faults=FaultConfig(ber=1e-4, drop_rate=0.01, seed=5, rdma_timeout=256)
)

CASES = {
    "gups-2-sequential": (SystemConfig.default(), "gups", 2, False),
    "gups-2-parallel": (SystemConfig.default(), "gups", 2, True),
    "mt-ring-4-sequential": (topology_smoke_config("ring"), "mt", 4, False),
    "gups-faulted-2-sequential": (FAULTED, "gups", 2, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_trace_equals_single_engine(case):
    config, workload, n_shards, parallel = CASES[case]
    single = _records(config, workload, None)
    sharded = _records(
        config, workload, ShardingOptions(n_shards=n_shards, parallel=parallel)
    )
    assert single, "the sampled trace is empty"
    assert validate_records(single) == []
    assert validate_records(sharded) == []
    assert _multiset(sharded) == _multiset(single)
