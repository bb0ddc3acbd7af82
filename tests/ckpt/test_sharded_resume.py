"""Sharded checkpoint/resume: byte-identity against the single engine.

Snapshots taken at coordinator-proven kernel boundaries must resume to
the single-engine reference payload regardless of shard count, drive
mode (sequential-windowed vs process-parallel), or which boundary the
run was cut at.  Because sequential and process-parallel runs share
identical shard state, a snapshot from one drive mode must also resume
under the other — the fingerprint deliberately ignores the drive mode.
"""

import shutil

import pytest

from repro.bench.smoke import digestable_payload
from repro.ckpt import (
    Checkpointer,
    read_header,
    resume,
    run_fingerprint,
)
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.build import ShardingOptions
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs with a short lookahead keeps windowed runs fast
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
NC = NetCrafterConfig.full()
WORKLOAD = "mm2"  # two kernels: one mid-run boundary, one final


class KeepEvery(Checkpointer):
    def after_save(self, boundary):
        shutil.copy(self.path, f"{self.path}.b{boundary}")


def _trace():
    return get_workload(WORKLOAD).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )


@pytest.fixture(scope="module")
def trace():
    return _trace()


@pytest.fixture(scope="module")
def reference(trace):
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0)
    node.load(trace)
    return digestable_payload(node.run().to_dict())


def _snapshot_all_boundaries(trace, tmp_path, n_shards, parallel):
    fingerprint = run_fingerprint(CONFIG, NC, 0, trace, n_shards=n_shards)
    hook = KeepEvery(path=tmp_path / "s.ckpt", fingerprint=fingerprint, every=1)
    node = ShardedSystem(
        config=CONFIG, netcrafter=NC, seed=0, n_shards=n_shards, parallel=parallel
    )
    node._ckpt_hook = hook
    node.load(trace)
    payload = digestable_payload(node.run().to_dict())
    return hook, payload


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("n_shards", [1, 2])
def test_every_boundary_matches_the_single_engine(
    trace, reference, tmp_path, n_shards, parallel
):
    hook, hooked = _snapshot_all_boundaries(trace, tmp_path, n_shards, parallel)
    # pure observer: the checkpointed sharded run still matches the
    # uninterrupted single-engine run
    assert hooked == reference
    assert hook.saved_boundaries == [1, 2]
    for boundary in hook.saved_boundaries:
        path = tmp_path / f"s.ckpt.b{boundary}"
        assert read_header(path)["mode"] == "sharded"
        result = resume(
            path,
            config=CONFIG,
            netcrafter=NC,
            seed=0,
            workload=trace,
            sharding=ShardingOptions(n_shards=n_shards, parallel=parallel),
        )
        assert digestable_payload(result.to_dict()) == reference, (
            f"{n_shards}-shard {'parallel' if parallel else 'sequential'} "
            f"boundary {boundary} resumed to a different result"
        )


def test_snapshot_crosses_drive_modes(trace, reference, tmp_path):
    """A sequential snapshot resumes under process-parallel workers and
    vice versa: shard state is drive-mode agnostic."""
    seq_hook, _ = _snapshot_all_boundaries(trace, tmp_path / "seq", 2, False)
    result = resume(
        tmp_path / "seq" / "s.ckpt.b1",
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        workload=trace,
        sharding=ShardingOptions(n_shards=2, parallel=True),
    )
    assert digestable_payload(result.to_dict()) == reference

    par_hook, _ = _snapshot_all_boundaries(trace, tmp_path / "par", 2, True)
    result = resume(
        tmp_path / "par" / "s.ckpt.b1",
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        workload=trace,
        sharding=ShardingOptions(n_shards=2, parallel=False),
    )
    assert digestable_payload(result.to_dict()) == reference


def test_shard_count_rides_the_fingerprint(trace, tmp_path):
    """A narrow-window snapshot (half the lookahead of ``CONFIG``)
    resumes byte-identically to the single engine on the same config,
    and the shard count is part of the fingerprint (a different one
    refuses)."""
    config = CONFIG.with_overrides(inter_link_latency=4)
    single = MultiGpuSystem(config=config, netcrafter=NC, seed=0)
    single.load(trace)
    reference = digestable_payload(single.run().to_dict())

    fingerprint = run_fingerprint(config, NC, 0, trace, n_shards=2)
    hook = KeepEvery(path=tmp_path / "w.ckpt", fingerprint=fingerprint, every=1)
    node = ShardedSystem(config=config, netcrafter=NC, seed=0, n_shards=2)
    node._ckpt_hook = hook
    node.load(trace)
    assert digestable_payload(node.run().to_dict()) == reference
    result = resume(
        tmp_path / "w.ckpt.b1",
        config=config,
        netcrafter=NC,
        seed=0,
        workload=trace,
        sharding=ShardingOptions(n_shards=2, parallel=False),
    )
    assert digestable_payload(result.to_dict()) == reference

    from repro.ckpt import FingerprintMismatchError

    with pytest.raises(FingerprintMismatchError):
        resume(
            tmp_path / "w.ckpt.b1",
            config=config,
            netcrafter=NC,
            seed=0,
            workload=trace,
            sharding=ShardingOptions(n_shards=4, parallel=False),
        )


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_resumed_metrics_keep_every_column(trace, tmp_path, parallel):
    """Gauge sources do not survive pickling; the restored shards rebind
    them, so the resumed series matches the uninterrupted one."""
    from repro.ckpt import read_snapshot
    from repro.shard.shard_system import ShardObsSpec

    spec = ShardObsSpec(metrics_interval=200)
    fingerprint = run_fingerprint(CONFIG, NC, 0, trace, n_shards=2)
    hook = KeepEvery(path=tmp_path / "m.ckpt", fingerprint=fingerprint, every=1)
    node = ShardedSystem(
        config=CONFIG, netcrafter=NC, seed=0, n_shards=2, obs_spec=spec
    )
    node._ckpt_hook = hook
    node.load(trace)
    uninterrupted = digestable_payload(node.run().to_dict())
    reference = node.merged_obs().metrics

    _, payload = read_snapshot(tmp_path / "m.ckpt.b1", expected_fingerprint=fingerprint)
    resumed = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=2,
        parallel=parallel,
        obs_spec=spec,
    )
    resumed.load(trace)
    result = resumed.resume_run(
        shard_states=payload["shard_states"],
        kernel_index=payload["kernel_index"],
        q=payload["q"],
        windows_run=payload["windows_run"],
        mail_seq=payload["mail_seq"],
    )
    assert digestable_payload(result.to_dict()) == uninterrupted
    metrics = resumed.merged_obs().metrics
    assert metrics.names() == reference.names()
    final = metrics.samples[-1]
    assert set(final) == {"cycle", *reference.names()}
    assert metrics.samples == reference.samples
