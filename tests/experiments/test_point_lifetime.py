"""What a point leaves behind: the reused trace, and nothing else.

The runner keeps a few recently built traces so a grid's variants of
one (workload, n_gpus, scale, seed) load the trace their sibling built
a moment earlier.  Handing one trace to several runs is sound only
because no run mutates the trace it loads, which
``test_runs_leave_the_trace_unchanged`` proves for every registry
workload on every path that loads a trace.  The node graph, by
contrast, must not outlive its point: the collector policy frees it
when ``execute_point`` returns.
"""

import gc
import pickle
import shutil

import pytest

from repro.bench.smoke import results_digest
from repro.ckpt import Checkpointer, resume, run_fingerprint
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentPoint,
    RunContext,
    execute_point,
    run_many,
)
from repro.gpu.system import MultiGpuSystem
from repro.shard.build import ShardingOptions
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import WORKLOADS, get_workload

CONFIG = SystemConfig.default()


@pytest.fixture(autouse=True)
def _empty_memo():
    runner._traces.clear()
    yield
    runner._traces.clear()


def test_equal_keys_share_one_trace():
    trace = runner._trace("gups", 4, Scale.tiny(), 0)
    assert runner._trace("gups", 4, Scale.tiny(), 0) is trace
    # equal by value, not by identity: Scale is a frozen dataclass
    assert runner._trace("gups", 4, Scale(**vars(Scale.tiny())), 0) is trace
    assert runner._trace("gups", 4, Scale.tiny(), 1) is not trace
    assert runner._trace("gups", 4, Scale.small(), 0) is not trace
    assert runner._trace("gups", 8, Scale.tiny(), 0) is not trace
    assert runner._trace("mt", 4, Scale.tiny(), 0) is not trace


def test_memo_never_exceeds_its_bound():
    size = runner._TRACE_MEMO_SIZE
    for seed in range(size + 3):
        runner._trace("gups", 4, Scale.tiny(), seed)
        assert len(runner._traces) <= size
    # least recently used goes first: the newest seeds are still shared
    newest = runner._trace("gups", 4, Scale.tiny(), size + 2)
    assert runner._trace("gups", 4, Scale.tiny(), size + 2) is newest
    assert ("gups", 4, Scale.tiny(), 0) not in runner._traces


class _KeepFirst(Checkpointer):
    """Retain the first cut's snapshot instead of overwriting it."""

    def after_save(self, cycle):
        if cycle == self.saved_cycles[0]:
            shutil.copy(self.path, f"{self.path}.first")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_runs_leave_the_trace_unchanged(workload, tmp_path):
    trace = get_workload(workload).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )
    before = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
    nc = NetCrafterConfig.full()

    single = MultiGpuSystem(config=CONFIG, netcrafter=nc, seed=0)
    single.load(trace)
    cycles = single.run().cycles

    sharding = ShardingOptions(n_shards=2, parallel=False)
    path = tmp_path / "s.ckpt"
    hook = _KeepFirst(
        path=path,
        fingerprint=run_fingerprint(CONFIG, nc, 0, trace, n_shards=2),
        every=max(1, cycles // 2),
    )
    sharded = ShardedSystem(config=CONFIG, netcrafter=nc, seed=0, n_shards=2)
    sharded._ckpt_hook = hook
    sharded.load(trace)
    sharded.run()
    resume(
        f"{path}.first",
        config=CONFIG,
        netcrafter=nc,
        seed=0,
        workload=trace,
        sharding=sharding,
    ).run()

    assert pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL) == before


def _grid():
    return [
        ExperimentPoint(workload, netcrafter=nc, scale=Scale.tiny(), seed=seed)
        for workload in ("gups", "pr", "ar_ring")
        for nc in (NetCrafterConfig.baseline(), NetCrafterConfig.full())
        for seed in (0, 1)
    ]


def _digests_and_builds(monkeypatch):
    builds = []
    real = runner.get_workload

    def counting(name):
        builds.append(name)
        return real(name)

    monkeypatch.setattr(runner, "get_workload", counting)
    results = run_many(_grid(), use_cache=False, ctx=RunContext())
    monkeypatch.setattr(runner, "get_workload", real)
    runner._traces.clear()
    return [results_digest([r.to_dict()]) for r in results], len(builds)


def test_reused_traces_give_the_same_digests(monkeypatch):
    kept, kept_builds = _digests_and_builds(monkeypatch)
    # a memo of size 0 drops every trace as soon as it is stored, so
    # each point builds its own
    monkeypatch.setattr(runner, "_TRACE_MEMO_SIZE", 0)
    cleared, cleared_builds = _digests_and_builds(monkeypatch)
    assert kept == cleared
    # the full variant reused each trace its baseline sibling built
    assert cleared_builds == len(_grid())
    assert kept_builds == len(_grid()) // 2


def test_each_point_graph_is_freed_when_execute_point_returns():
    points = [
        ExperimentPoint("gups", netcrafter=nc, scale=Scale.tiny(), seed=0)
        for nc in (NetCrafterConfig.baseline(), NetCrafterConfig.full())
    ]
    was = gc.isenabled()
    gc.collect()
    # with automatic collection off, only the policy's exit collection
    # can free a point's graph
    gc.disable()
    try:
        counts = []
        for index in range(20):
            execute_point(points[index % 2], RunContext())
            counts.append(len(gc.get_objects()))
    finally:
        (gc.enable if was else gc.disable)()
    # the first points build the trace and warm lazy state; after
    # that the tracked-object count is flat, not one graph per point
    settled = counts[4:]
    assert max(settled) - min(settled) < 100, counts
