"""Fault-injected runs checkpoint and resume like fault-free ones.

Under fault injection the RDMA retry backstop keeps timers armed and
retry clones in flight, so a snapshot holds pending continuations and
requester-table entries — after the finish cycle too, where retries run
out.  Requests are int tags and every continuation is a bound method
(or a partial over one), so the state pickles; resuming it must
reproduce the uninterrupted run.
"""

import shutil

import pytest

from repro.bench.smoke import digestable_payload
from repro.ckpt import Checkpointer, resume, run_fingerprint
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.faults.config import FaultConfig
from repro.shard.build import ShardingOptions, build_node
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

NC = NetCrafterConfig.full()
FAULTS = {
    "ber": FaultConfig(ber=1e-4, seed=3),
    "retries": FaultConfig(ber=1e-4, drop_rate=0.01, seed=5, rdma_timeout=256),
}


class KeepEvery(Checkpointer):
    def after_save(self, cycle):
        shutil.copy(self.path, f"{self.path}.c{cycle}")


@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_faulted_mm2_resumes_from_each_boundary(faults, tmp_path):
    config = SystemConfig.default().with_overrides(faults=FAULTS[faults])
    trace = get_workload("mm2").build(
        n_gpus=config.n_gpus, scale=Scale.small(), seed=0
    )
    payloads = {}
    for sharding in (None, ShardingOptions(n_shards=2, parallel=False)):
        n_shards = 1 if sharding is None else sharding.n_shards
        path = tmp_path / f"{n_shards}.ckpt"
        node = build_node(config, NC, 0, sharding)
        node.load(trace)
        cycles = node.run().cycles
        hook = KeepEvery(
            path=path,
            fingerprint=run_fingerprint(config, NC, 0, trace, n_shards=n_shards),
            every=cycles // 2 + 1,
        )
        node = build_node(config, NC, 0, sharding)
        node._ckpt_hook = hook
        node.load(trace)
        # saving schedules nothing, so this is the uninterrupted run
        uninterrupted = digestable_payload(node.run().to_dict())
        assert uninterrupted["stats"]["faults"]["__faults__"]["flits_corrupted"] > 0
        # a cut mid-run, and the cut after the finish cycle: retries
        # still in flight there run out after the resume
        first, second = hook.saved_cycles[:2]
        assert first < cycles < second
        for cycle in (first, second):
            resumed = resume(
                f"{path}.c{cycle}",
                config=config,
                netcrafter=NC,
                seed=0,
                workload=trace,
                sharding=sharding,
            ).run()
            assert digestable_payload(resumed.to_dict()) == uninterrupted, cycle
        payloads[n_shards] = uninterrupted
    assert payloads[2] == payloads[1]
