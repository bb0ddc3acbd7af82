"""Each workload end to end at test size, untraced and traced.

Test-size workloads keep their paths (single engine, process-parallel
shards, the campaign server) but run tiny points, one seed and a short
time budget; they carry their own names, so they are checked against
directly recomputed references rather than the committed ones.
"""

import os
import re
from dataclasses import replace

import pytest

from repro.bench.suite import procs
from repro.bench.suite.cli import run_workload
from repro.bench.suite.reference import Reference
from repro.bench.suite.report import build_report, load_declaration
from repro.bench.suite.workloads import WORKLOADS
from repro.workloads.base import Scale

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _test_size(name):
    wl = replace(
        WORKLOADS[name], name=f"{name}-test", scale=Scale.tiny(), seed_offsets=(0,)
    )
    if wl.kind == "serve":
        wl = replace(wl, workloads=("gups", "mt"))
    return wl


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_declared_metric(name, trace):
    declaration = load_declaration()
    before = procs.descendants(os.getpid())
    outcome = run_workload(_test_size(name), 3, 0.05, trace, Reference({}))
    assert outcome.failures == [] and outcome.correct
    assert outcome.attempted > 0 and outcome.failed == 0

    report = build_report(name, 3, 0.05, trace, outcome, declaration)
    declared = declaration["per_layer" if trace else "end_to_end"]
    metrics = report["result"]["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for metric_name, metric in metrics.items():
        assert METRIC_NAME.match(metric_name)
        assert metric["unit"] and isinstance(metric["value"], (int, float))
    if trace:
        # the traced run re-ran its points untraced and compared digests
        assert metrics["obs.trace_overhead_ratio"]["value"] > 0
        assert metrics["sim.events"]["value"] > 0
        assert any(s["name"] == "sim.run" for s in outcome.spans.spans)
    else:
        assert metrics["sim_cycles_per_s"]["value"] > 0
        assert metrics["latency_s_p50"]["value"] > 0
        assert metrics["setup_s"]["value"] > 0
    assert procs.descendants(os.getpid()) <= before
    assert not any(p.is_dir() for p in procs.RUNS_DIR.glob("*"))


def test_serving_counts_memo_and_executed_points():
    outcome = run_workload(_test_size("serve_mixed"), 0, 0.05, True, Reference({}))
    values = outcome.values
    assert values["campaign.points_executed"] == values["campaign.points_served_memo"]
    assert values["campaign.dedupe_ratio"] == pytest.approx(0.5)
    assert values["experiments.cache_writes"] == values["campaign.points_executed"]
    assert values["shard.windows"] == 0
