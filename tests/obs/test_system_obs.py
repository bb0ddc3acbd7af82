"""End-to-end observability acceptance: trace a real NetCrafter run.

Runs whole workloads through :class:`MultiGpuSystem` with the full
observability bundle attached and checks the PR's acceptance invariants:
the emitted trace is schema-valid JSONL, the Chrome export loads, the
metrics time series ends exactly at the end-of-run aggregate counters,
and the profiler attributes every dispatched event.
"""

import json

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.obs import (
    EngineProfiler,
    EventTracer,
    MetricsRegistry,
    Observability,
    validate_jsonl,
)
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload


def _run_traced(
    workload="gups",
    nc=None,
    sample=1,
    metrics_interval=500,
    profile=True,
    seed=0,
):
    system_cfg = SystemConfig.default()
    obs = Observability(
        tracer=EventTracer(sample=sample),
        metrics=MetricsRegistry(metrics_interval),
        profiler=EngineProfiler() if profile else None,
    )
    trace = get_workload(workload).build(
        n_gpus=system_cfg.n_gpus, scale=Scale.tiny(), seed=seed
    )
    system = MultiGpuSystem(
        config=system_cfg,
        netcrafter=nc or NetCrafterConfig.full(),
        seed=seed,
        obs=obs,
    )
    system.load(trace)
    result = system.run()
    return result, obs


@pytest.fixture(scope="module")
def traced_run():
    """One fully-featured traced run shared by the checks below."""
    return _run_traced()


class TestTraceContent:
    def test_every_mechanism_leaves_events(self, traced_run):
        _, obs = traced_run
        counts = obs.tracer.count_by_event()
        # the full config at tiny scale exercises inject/stage/eject/
        # wire_start/deliver on every run and stitching on gups traffic
        for event in ("inject", "stage", "eject", "wire_start", "deliver"):
            assert counts.get(event, 0) > 0, f"no {event!r} events"
        assert counts.get("stitch", 0) > 0

    def test_pool_and_trim_events(self):
        # pooling needs padded flits waiting for company; read-heavy gups
        # under selective pooling with a long window produces them, and
        # trimming fires on the full config's read responses
        _, obs = _run_traced(
            nc=NetCrafterConfig.full(pooling_window=64)
        )
        counts = obs.tracer.count_by_event()
        assert counts.get("trim", 0) > 0
        assert counts.get("pool", 0) > 0

    def test_jsonl_is_schema_valid(self, traced_run, tmp_path):
        _, obs = traced_run
        path = tmp_path / "run.trace.jsonl"
        written = obs.tracer.to_jsonl(path)
        assert written == len(obs.tracer)
        assert validate_jsonl(path) == []

    def test_chrome_export_loads(self, traced_run, tmp_path):
        _, obs = traced_run
        path = tmp_path / "run.trace.json"
        obs.tracer.to_chrome(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"], "empty Chrome trace"
        assert {"ph", "pid", "tid", "ts"} <= set(
            next(e for e in doc["traceEvents"] if e["ph"] != "M")
        )

    def test_sampled_trace_still_valid(self, traced_run, tmp_path):
        _, obs = _run_traced(sample=4, profile=False)
        path = tmp_path / "sampled.trace.jsonl"
        obs.tracer.to_jsonl(path)
        assert validate_jsonl(path) == []
        # the tag rule: every 4th request of each requester, counted in
        # its inject order in the unsampled trace of the same run
        _, full = traced_run
        requests = {}
        for r in full.tracer.events():
            if r["event"] == "inject" and r["ptype"].endswith("_req"):
                requests.setdefault(r["src"], []).append(r["packet"])
        expected = {pid for pids in requests.values() for pid in pids[::4]}
        sampled = {
            r["packet"]
            for r in obs.tracer.events()
            if r["event"] == "inject" and r["ptype"].endswith("_req")
        }
        assert sampled and sampled == expected
        # a sampled trace is a subset of the full trace, IDs included
        everything = {json.dumps(r, sort_keys=True) for r in full.tracer.events()}
        assert all(
            json.dumps(r, sort_keys=True) in everything for r in obs.tracer.events()
        )


class TestMetricsSeries:
    def test_final_sample_matches_aggregates(self, traced_run):
        """The cumulative series must end at the RunResult totals."""
        result, obs = traced_run
        metrics = obs.metrics
        assert metrics.latest("inter.wire_bytes") == result.inter_wire_bytes
        assert metrics.latest("inter.useful_bytes") == result.inter_useful_bytes
        assert metrics.latest("inter.flits") == result.inter_flits_sent

    def test_series_cycles_monotonic_and_end_at_finish(self, traced_run):
        result, obs = traced_run
        cycles = [cycle for cycle, _ in obs.metrics.series("inter.wire_bytes")]
        assert cycles == sorted(set(cycles))
        assert cycles[0] == 0  # launch-time baseline
        assert cycles[-1] == result.cycles

    def test_cumulative_series_nondecreasing(self, traced_run):
        _, obs = traced_run
        values = [v for _, v in obs.metrics.series("inter.wire_bytes")]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0

    def test_gauges_present(self, traced_run):
        _, obs = traced_run
        names = obs.metrics.names()
        assert "mshr.l2.occupancy" in names
        assert "engine.pending_events" in names
        assert any(name.startswith("cq.") for name in names)


class TestProfiler:
    def test_all_events_attributed(self, traced_run):
        _, obs = traced_run
        profiler = obs.profiler
        assert profiler.events > 0
        assert sum(count for count, _ in profiler.by_key.values()) == profiler.events
        keys = set(profiler.by_key)
        # the hot components of a tiny run all show up
        assert any("NetCrafterController" in key for key in keys)
        assert any("ComputeUnit" in key or "Cu" in key for key in keys)


class TestDisabledPath:
    def test_default_obs_records_nothing(self):
        system_cfg = SystemConfig.default()
        trace = get_workload("gups").build(
            n_gpus=system_cfg.n_gpus, scale=Scale.tiny(), seed=0
        )
        system = MultiGpuSystem(
            config=system_cfg, netcrafter=NetCrafterConfig.full(), seed=0
        )
        system.load(trace)
        system.run()
        assert not system.obs.enabled
        assert system.engine.profiler is None

    def test_traced_run_is_timing_identical(self, traced_run):
        """Observability must be an observer: cycles cannot change."""
        traced_result, _ = traced_run
        system_cfg = SystemConfig.default()
        trace = get_workload("gups").build(
            n_gpus=system_cfg.n_gpus, scale=Scale.tiny(), seed=0
        )
        system = MultiGpuSystem(
            config=system_cfg, netcrafter=NetCrafterConfig.full(), seed=0
        )
        system.load(trace)
        plain_result = system.run()
        assert plain_result.cycles == traced_result.cycles
        assert plain_result.inter_wire_bytes == traced_result.inter_wire_bytes
