"""System-level determinism: a run is a pure function of its configuration.

The simulator promises that a (workload, configuration, seed) point
produces a byte-identical :class:`RunResult` no matter what ran before
it in the process and no matter whether it ran inline or inside a
``run_many`` worker process.  That promise is what makes the persistent
result cache, the parallel fan-out, and the benchmark suite's result
digest sound — so it gets its own golden tests here, run over a
miniature version of the benchmark smoke grid.

The same holds for the IDs a run's trace carries: packet and flit IDs
are minted by the RDMA engines and egress controllers of the run itself,
so nothing is left to reset between runs.
"""

import json

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.runner import (
    ExperimentPoint,
    ObservabilityOptions,
    RunContext,
    run_many,
)
from repro.gpu.system import MultiGpuSystem
from repro.obs import EventTracer, Observability
from repro.obs.tracer import iter_jsonl
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

SCALE = Scale.tiny()

#: two access patterns under the baseline and the full feature set — the
#: shape of the benchmark smoke grid, shrunk to unit-test size
GRID = [
    ("gups", NetCrafterConfig.baseline()),
    ("gups", NetCrafterConfig.full()),
    ("mt", NetCrafterConfig.baseline()),
    ("mt", NetCrafterConfig.full()),
]


def _run_direct(workload, netcrafter, seed=0, obs=None):
    """Simulate one point inline, bypassing every cache layer."""
    config = SystemConfig.default()
    trace = get_workload(workload).build(
        n_gpus=config.n_gpus, scale=SCALE, seed=seed
    )
    system = MultiGpuSystem(
        config=config, netcrafter=netcrafter, seed=seed, obs=obs
    )
    system.load(trace)
    return system.run()


def _trace_ids(records):
    """The (cycle, event, packet, flit) stream of a trace, in trace order."""
    return [
        (r["cycle"], r["event"], r["packet"], r.get("flit"))
        for r in records
        if r["event"] != "trace_meta"
    ]


def _traced_direct(workload, netcrafter):
    obs = Observability(tracer=EventTracer())
    _run_direct(workload, netcrafter, obs=obs)
    return _trace_ids(obs.tracer.events())


def _payload(result):
    """The byte string whose equality defines "the same result"."""
    return json.dumps(result.to_dict(), sort_keys=True)


class TestInProcessRepeatability:
    def test_grid_repeat_is_bit_identical(self):
        first = [_payload(_run_direct(w, nc)) for w, nc in GRID]
        second = [_payload(_run_direct(w, nc)) for w, nc in GRID]
        assert first == second

    def test_result_independent_of_what_ran_before(self):
        """A point's result must not depend on process history."""
        w, nc = GRID[0]
        fresh = _payload(_run_direct(w, nc))
        for other_w, other_nc in GRID[1:]:
            _run_direct(other_w, other_nc)  # perturb module-global state
        assert _payload(_run_direct(w, nc)) == fresh

class TestWorkerProcessEquivalence:
    def test_run_many_two_jobs_matches_inline_runs(self):
        """Fresh worker processes reproduce inline results byte for byte."""
        inline = [_payload(_run_direct(w, nc)) for w, nc in GRID]
        points = [
            ExperimentPoint(workload=w, netcrafter=nc, scale=SCALE)
            for w, nc in GRID
        ]
        fanned = run_many(points, jobs=2, use_cache=False)
        assert [_payload(r) for r in fanned] == inline

    def test_traced_runs_repeat_their_ids(self, tmp_path):
        """Back-to-back traced runs in one process, and the same point in
        a ``run_many`` worker, emit identical trace IDs — nothing is reset
        between them."""
        w, nc = GRID[1]
        first = _traced_direct(w, nc)
        assert first and _traced_direct(w, nc) == first
        points = [
            ExperimentPoint(workload=w, netcrafter=nc, scale=SCALE),
            ExperimentPoint(workload="mt", netcrafter=nc, scale=SCALE),
        ]
        ctx = RunContext(
            observability=ObservabilityOptions(trace=True, out_dir=str(tmp_path))
        )
        fanned = run_many(points, jobs=2, use_cache=False, ctx=ctx)
        assert _trace_ids(iter_jsonl(fanned[0].trace_path)) == first
