"""The collector policy around a simulation run (``repro.sim.collector``).

Two things are pinned here.  The policy hands the caller's collector
state back however the body ends — normally, by raising, nested, or
while other threads are still inside.  And the premise that makes the
policy safe holds for every registry workload: a run makes no cyclic
garbage, so turning automatic collection off for its duration cannot
grow memory.  A future per-event reference cycle fails that test
instead of quietly accumulating until the point boundary.
"""

import gc
import sys
import threading

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.sim import collector
from repro.sim.collector import collector_paused
from repro.workloads.base import Scale
from repro.workloads.registry import WORKLOADS, get_workload


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def initial(request):
    """Run the test from each collector state; restore the real one after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def test_state_comes_back_after_the_body(initial):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() == initial


def test_state_comes_back_after_a_raise(initial):
    with pytest.raises(ValueError):
        with collector_paused():
            raise ValueError("point failed")
    assert gc.isenabled() == initial
    assert collector._depth == 0


def test_nested_entries_restore_only_at_the_outermost_exit(initial):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() == initial


def test_overlapping_threads_restore_at_the_last_exit(initial):
    inside = threading.Event()
    leave = threading.Event()

    def point():
        with collector_paused():
            inside.set()
            assert leave.wait(timeout=10)

    other = threading.Thread(target=point)
    other.start()
    try:
        assert inside.wait(timeout=10)
        with collector_paused():
            pass
        # the other thread is still inside its point
        assert not gc.isenabled()
    finally:
        leave.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert gc.isenabled() == initial


def test_many_threads_never_see_the_collector_on_inside(initial):
    failures = []

    def points():
        for _ in range(200):
            with collector_paused():
                if gc.isenabled():
                    failures.append("collector on inside a point")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=points) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert collector._depth == 0
    assert gc.isenabled() == initial


CONFIG = SystemConfig.default()


def _single():
    return MultiGpuSystem(config=CONFIG, netcrafter=NetCrafterConfig.full(), seed=0)


def _two_sequential_shards():
    return ShardedSystem(
        config=CONFIG, netcrafter=NetCrafterConfig.full(), seed=0, n_shards=2
    )


@pytest.mark.parametrize("make_node", [_single, _two_sequential_shards])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_run_makes_no_cyclic_garbage(workload, make_node):
    trace = get_workload(workload).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )
    node = make_node()
    node.load(trace)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        node.run()
        # the node is still referenced: anything unreachable now is
        # garbage the run made and dropped
        unreachable = gc.collect(0)
    finally:
        (gc.enable if was else gc.disable)()
    assert unreachable == 0
