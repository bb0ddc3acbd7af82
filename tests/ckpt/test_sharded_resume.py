"""Sharded checkpoint/resume: byte-identity against the single engine.

Snapshots cut at a window boundary — the coordinator's loop state, its
undelivered mail and every shard's state — must resume to the
single-engine reference payload regardless of shard count, drive mode
(sequential-windowed vs process-parallel), or which window the run was
cut at.  Because sequential and process-parallel runs share identical
shard state, a snapshot from one drive mode must also resume under the
other — the fingerprint deliberately ignores the drive mode.
"""

import shutil

import pytest

from repro.bench.smoke import digestable_payload
from repro.ckpt import (
    Checkpointer,
    read_header,
    read_snapshot,
    resume,
    run_fingerprint,
)
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.faults.config import FaultConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.build import ShardingOptions
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs with a short lookahead keeps windowed runs fast
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
FAULTED = CONFIG.with_overrides(faults=FaultConfig(ber=1e-4, seed=3))
NC = NetCrafterConfig.full()
WORKLOAD = "mm2"  # two kernels: cuts fall in either one


class KeepEvery(Checkpointer):
    def after_save(self, cycle):
        shutil.copy(self.path, f"{self.path}.c{cycle}")


def _trace():
    return get_workload(WORKLOAD).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )


def _single(config, trace):
    node = MultiGpuSystem(config=config, netcrafter=NC, seed=0)
    node.load(trace)
    return node.run()


@pytest.fixture(scope="module")
def trace():
    return _trace()


@pytest.fixture(scope="module")
def finished(trace):
    return _single(CONFIG, trace)


@pytest.fixture(scope="module")
def reference(finished):
    return digestable_payload(finished.to_dict())


def _hooked_run(config, trace, tmp_path, n_shards, parallel, every, obs_spec=None):
    fingerprint = run_fingerprint(config, NC, 0, trace, n_shards=n_shards)
    hook = KeepEvery(path=tmp_path / "s.ckpt", fingerprint=fingerprint, every=every)
    node = ShardedSystem(
        config=config,
        netcrafter=NC,
        seed=0,
        n_shards=n_shards,
        parallel=parallel,
        obs_spec=obs_spec,
    )
    node._ckpt_hook = hook
    node.load(trace)
    payload = digestable_payload(node.run().to_dict())
    return hook, payload, node


def _resume(config, trace, path, n_shards, parallel):
    node = resume(
        path,
        config=config,
        netcrafter=NC,
        seed=0,
        workload=trace,
        sharding=ShardingOptions(n_shards=n_shards, parallel=parallel),
    )
    return digestable_payload(node.run().to_dict())


def _pending_mail(path):
    _, payload = read_snapshot(path)
    return sum(len(batch) for batches in payload["loop"]["pending"] for batch in batches)


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("n_shards", [1, 2])
def test_every_boundary_matches_the_single_engine(
    trace, finished, reference, tmp_path, n_shards, parallel
):
    every = finished.cycles // 3 + 1
    hook, hooked, _ = _hooked_run(CONFIG, trace, tmp_path, n_shards, parallel, every)
    # saving schedules nothing: the checkpointed sharded run still
    # matches the uninterrupted single-engine run
    assert hooked == reference
    # a cut lands on the first window whose smallest frontier reaches
    # it, once per cut (the last window may overshoot the finish cycle)
    cuts = [cycle // every for cycle in hook.saved_cycles]
    assert cuts[:2] == [1, 2] and cuts == sorted(set(cuts))
    for cycle in hook.saved_cycles:
        path = tmp_path / f"s.ckpt.c{cycle}"
        assert read_header(path)["mode"] == "sharded"
        assert _resume(CONFIG, trace, path, n_shards, parallel) == reference, (
            f"{n_shards}-shard {'parallel' if parallel else 'sequential'} "
            f"cut at {cycle} resumed to a different result"
        )


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_mid_run_window_resumes_to_the_single_engine(trace, tmp_path, parallel, faulted):
    """A run on 2 shards cut at a mid-run window (23% and 61% of the
    run) resumes to the single-engine digest, faulted and not."""
    config = FAULTED if faulted else CONFIG
    finished = _single(config, trace)
    reference = digestable_payload(finished.to_dict())
    for share in (0.23, 0.61):
        every = int(finished.cycles * share)
        out = tmp_path / f"{share}"
        out.mkdir()
        hook, hooked, _ = _hooked_run(config, trace, out, 2, parallel, every)
        assert hooked == reference
        cycle = hook.saved_cycles[0]
        assert every <= cycle < finished.cycles
        path = out / f"s.ckpt.c{cycle}"
        _, payload = read_snapshot(path)
        # cut before the final kernel boundary was proven
        assert payload["loop"]["q_final"] is None
        assert _resume(config, trace, path, 2, parallel) == reference, (share, cycle)


def test_a_cut_carries_pending_mail(trace, reference, tmp_path):
    """Cut often enough that some snapshot holds mail the coordinator
    had routed but not yet delivered, and resume from such a snapshot:
    the restored loop must deliver it."""
    hook, _, _ = _hooked_run(CONFIG, trace, tmp_path, 2, False, every=40)
    with_mail = [
        cycle
        for cycle in hook.saved_cycles
        if _pending_mail(tmp_path / f"s.ckpt.c{cycle}")
    ]
    assert with_mail, hook.saved_cycles
    path = tmp_path / f"s.ckpt.c{with_mail[len(with_mail) // 2]}"
    assert _resume(CONFIG, trace, path, 2, False) == reference


def test_snapshot_crosses_drive_modes(trace, finished, reference, tmp_path):
    """A sequential snapshot resumes under process-parallel workers and
    vice versa: shard state is drive-mode agnostic."""
    every = finished.cycles // 2
    for parallel in (False, True):
        out = tmp_path / ("par" if parallel else "seq")
        out.mkdir()
        hook, _, _ = _hooked_run(CONFIG, trace, out, 2, parallel, every)
        path = out / f"s.ckpt.c{hook.saved_cycles[0]}"
        assert _resume(CONFIG, trace, path, 2, not parallel) == reference


def test_shard_count_rides_the_fingerprint(trace, tmp_path):
    """A narrow-window snapshot (half the lookahead of ``CONFIG``)
    resumes byte-identically to the single engine on the same config,
    and the shard count is part of the fingerprint (a different one
    refuses)."""
    config = CONFIG.with_overrides(inter_link_latency=4)
    finished = _single(config, trace)
    reference = digestable_payload(finished.to_dict())

    hook, hooked, _ = _hooked_run(
        config, trace, tmp_path, 2, False, every=finished.cycles // 2
    )
    assert hooked == reference
    path = tmp_path / f"s.ckpt.c{hook.saved_cycles[0]}"
    assert _resume(config, trace, path, 2, False) == reference

    from repro.ckpt import FingerprintMismatchError

    with pytest.raises(FingerprintMismatchError):
        _resume(config, trace, path, 4, False)


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_resumed_metrics_keep_every_column(trace, finished, tmp_path, parallel):
    """Gauge sources do not survive pickling; the restored shards rebind
    them, so the resumed series matches the uninterrupted one."""
    from repro.shard.shard_system import ShardObsSpec

    spec = ShardObsSpec(metrics_interval=200)
    hook, uninterrupted, node = _hooked_run(
        CONFIG, trace, tmp_path, 2, False, every=finished.cycles // 2, obs_spec=spec
    )
    reference = node.merged_obs().metrics

    _, payload = read_snapshot(
        tmp_path / f"s.ckpt.c{hook.saved_cycles[0]}",
        expected_fingerprint=hook.fingerprint,
    )
    resumed = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=2,
        parallel=parallel,
        obs_spec=spec,
    )
    resumed.load(trace)
    resumed.restore(payload)
    result = resumed.run()
    assert digestable_payload(result.to_dict()) == uninterrupted
    metrics = resumed.merged_obs().metrics
    assert metrics.names() == reference.names()
    final = metrics.samples[-1]
    assert set(final) == {"cycle", *reference.names()}
    assert metrics.samples == reference.samples
