"""Tracing observes a run without changing it.

Every inter-cluster link completes packets on the sending side and
emits a traced run's ``deliver``/``crc_ok``/``corrupt`` records at send
time, so a traced run dispatches exactly the events of an untraced one:
the same callbacks at the same ``(cycle, schedule key)``, in the same
order (:class:`~repro.obs.profiler.DispatchOrder`).
"""

from repro.bench.smoke import gate_points, smoke_campaign
from repro.experiments.runner import RunContext
from repro.obs.profiler import DispatchOrder
from repro.shard.build import build_node
from repro.shard.shard_system import ShardObsSpec
from repro.workloads.registry import get_workload


def _smoke_dispatch(trace: bool):
    """Dispatch digest and per-callback counts over the quick smoke grid,
    plus the number of ``deliver`` records traced."""
    order = DispatchOrder()
    delivers = 0
    for point in gate_points(smoke_campaign(quick=True)):
        point = point.normalized(RunContext())
        system = point.system
        node = build_node(
            system, point.netcrafter, point.seed, obs_spec=ShardObsSpec(trace=trace)
        )
        node.load(
            get_workload(point.workload).build(
                n_gpus=system.n_gpus, scale=point.scale, seed=point.seed
            )
        )
        order.attach(node.engine)
        node.run()
        if trace:
            delivers += sum(
                record["event"] == "deliver" for record in node.obs.tracer.events()
            )
    return order.hexdigest(), dict(order.counts), delivers


def test_traced_runs_dispatch_the_untraced_events():
    untraced_order, untraced_counts, _ = _smoke_dispatch(trace=False)
    traced_order, traced_counts, delivers = _smoke_dispatch(trace=True)
    assert delivers > 0  # the traced pass really traced its deliveries
    assert traced_counts == untraced_counts
    assert traced_order == untraced_order
