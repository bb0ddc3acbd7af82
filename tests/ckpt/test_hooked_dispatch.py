"""Checkpointing dispatches exactly the events of an unhooked run.

A hooked run is cut into engine-run slices (single engine) or saved at
the top of window-loop iterations (shards); neither may add, drop or
reorder an event.  Each engine gets a
:class:`~repro.obs.profiler.DispatchOrder`, and the hooked run's
digests and per-callback counts must equal the unhooked run's.
"""

import pytest

from repro.ckpt import Checkpointer, run_fingerprint
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.faults.config import FaultConfig
from repro.obs.profiler import DispatchOrder
from repro.shard import coordinator
from repro.shard.build import ShardingOptions, build_node
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

CONFIG = SystemConfig.default().with_overrides(faults=FaultConfig(ber=1e-4, seed=3))
NC = NetCrafterConfig.full()


class _PicklableOrder(DispatchOrder):
    """A DispatchOrder a snapshot can carry along: the running sha256
    does not pickle, so the pickled copy keeps the counts only (this
    test never resumes it; the live recorder keeps hashing)."""

    def __getstate__(self):
        return {"counts": self.counts, "engine": self.engine}


def _orders(trace, sharding, every, tmp_path, monkeypatch):
    """The per-engine dispatch orders of one run of ``trace``."""
    orders = []
    original = coordinator.open_shard

    def open_recorded(*args, **kwargs):
        shard = original(*args, **kwargs)
        orders.append(_PicklableOrder())
        orders[-1].attach(shard.engine)
        return shard

    monkeypatch.setattr(coordinator, "open_shard", open_recorded)
    node = build_node(CONFIG, NC, 0, sharding)
    node.load(trace)
    if sharding is None:
        orders.append(_PicklableOrder())
        orders[-1].attach(node.engine)
    if every is not None:
        n_shards = 1 if sharding is None else sharding.n_shards
        node._ckpt_hook = Checkpointer(
            path=tmp_path / "s.ckpt",
            fingerprint=run_fingerprint(CONFIG, NC, 0, trace, n_shards=n_shards),
            every=every,
        )
    cycles = node.run().cycles
    saved = [] if every is None else node._ckpt_hook.saved_cycles
    return [(o.hexdigest(), dict(o.counts)) for o in orders], cycles, saved


@pytest.mark.parametrize(
    "sharding",
    [None, ShardingOptions(n_shards=2, parallel=False)],
    ids=["single-engine", "2-shard-sequential"],
)
def test_hooked_run_dispatches_the_unhooked_events(sharding, tmp_path, monkeypatch):
    trace = get_workload("mm2").build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )
    unhooked, cycles, _ = _orders(trace, sharding, None, tmp_path, monkeypatch)
    hooked, _, saved = _orders(trace, sharding, cycles // 5, tmp_path, monkeypatch)
    assert len([cycle for cycle in saved if cycle < cycles]) >= 4
    assert len(hooked) == (1 if sharding is None else 2)
    assert hooked == unhooked
