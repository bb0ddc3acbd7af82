"""Tests for the experiment runner and its cache."""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import ResultCache
from repro.experiments.runner import (
    ExperimentPoint,
    ExperimentScale,
    ObservabilityOptions,
    RunContext,
    clear_cache,
    current_context,
    install_context,
    reset_run_stats,
    run_many,
    run_stats,
)
from repro.workloads.base import Scale


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    reset_run_stats()
    previous = install_context(RunContext())
    yield
    clear_cache()
    reset_run_stats()
    install_context(previous)


def _install(**fields):
    """Install a context whose disk cache (if any) lives at ``cache``."""
    cache = fields.pop("cache", None)
    install_context(
        RunContext(cache=ResultCache(cache) if cache else None, **fields)
    )


def disk_cache():
    return current_context().cache


def run_point(workload="gups", use_cache=True, ctx=None, **fields):
    """One tiny point through ``run_many``."""
    (result,) = run_many(
        [ExperimentPoint(workload=workload, scale=Scale.tiny(), **fields)],
        use_cache=use_cache,
        ctx=ctx,
    )
    return result


def test_run_one_returns_result():
    result = run_point()
    assert result.cycles > 0
    assert result.workload == "gups"


def test_cache_returns_same_object():
    a = run_point()
    b = run_point()
    assert a is b


def test_cache_distinguishes_configs():
    a = run_point()
    b = run_point(netcrafter=NetCrafterConfig.full())
    assert a is not b


def test_cache_bypass():
    a = run_point(use_cache=False)
    b = run_point(use_cache=False)
    assert a is not b
    assert a.cycles == b.cycles  # still deterministic


def test_run_pair():
    base, out = run_many(
        [
            ExperimentPoint(workload="gups", scale=Scale.tiny()),
            ExperimentPoint(
                workload="gups", netcrafter=NetCrafterConfig.full(), scale=Scale.tiny()
            ),
        ]
    )
    assert base.config_label == "baseline"
    assert out.config_label != "baseline"


def _tiny_points():
    return [
        ExperimentPoint(workload="gups", scale=Scale.tiny()),
        ExperimentPoint(
            workload="gups", netcrafter=NetCrafterConfig.full(), scale=Scale.tiny()
        ),
        ExperimentPoint(workload="mt", scale=Scale.tiny()),
        ExperimentPoint(
            workload="mt", netcrafter=NetCrafterConfig.full(), scale=Scale.tiny()
        ),
    ]


class TestExperimentPoint:
    def test_normalized_fills_defaults(self):
        point = ExperimentPoint(workload="gups").normalized()
        assert point.system == SystemConfig.default()
        assert point.netcrafter == NetCrafterConfig.baseline()
        assert point.scale == Scale.small()

    def test_key_matches_run_one_memoization(self):
        result = run_point()
        points = [
            ExperimentPoint(workload="gups", scale=Scale.tiny()),
            ExperimentPoint(workload="gups", scale=Scale.tiny()),
        ]
        many = run_many(points)
        assert many[0] is result  # memo hit, same object
        assert many[1] is result  # duplicate within the batch


class TestRunMany:
    def test_order_preserved_and_complete(self):
        points = _tiny_points()
        results = run_many(points)
        assert len(results) == len(points)
        for point, result in zip(points, results):
            assert result.workload == point.workload

    def test_parallel_matches_serial(self):
        serial = [run_many([p], use_cache=False)[0] for p in _tiny_points()]
        clear_cache()
        parallel = run_many(_tiny_points(), jobs=2)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_stats_track_hits_and_executions(self):
        run_many(_tiny_points())
        assert run_stats.executed == 4
        run_many(_tiny_points())
        assert run_stats.executed == 4
        assert run_stats.memory_hits == 4
        assert run_stats.batches == 2
        assert len(run_stats.timings) == 4


class TestDiskCache:
    def test_results_persist_across_memo_clears(self, tmp_path):
        _install(cache=tmp_path)
        first = run_many(_tiny_points())
        assert len(disk_cache()) == 4
        clear_cache()  # drop the in-process memo, keep the disk
        reset_run_stats()
        second = run_many(_tiny_points())
        assert run_stats.executed == 0
        assert run_stats.disk_hits == 4
        assert run_stats.disk_hit_rate() == 1.0
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]

    def test_run_one_uses_disk_cache(self, tmp_path):
        _install(cache=tmp_path)
        first = run_point()
        clear_cache()
        second = run_point()
        assert second is not first  # deserialized copy, not the memo object
        assert second.to_dict() == first.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        _install(cache=tmp_path)
        run_point()
        for path in tmp_path.rglob("*.json"):
            path.write_text("{ not json")
        clear_cache()
        reset_run_stats()
        result = run_point()
        assert result.cycles > 0
        assert run_stats.disk_hits == 0
        assert run_stats.executed == 1


class TestObservability:
    def _options(self, tmp_path, **overrides):
        defaults = dict(
            trace=True,
            metrics_interval=500,
            profile=True,
            out_dir=str(tmp_path / "obs"),
        )
        defaults.update(overrides)
        return ObservabilityOptions(**defaults)

    def test_inactive_options_are_a_no_op(self):
        assert not ObservabilityOptions().active
        _install(observability=ObservabilityOptions())
        a = run_point()
        b = run_point()
        assert a is b  # caching still on
        assert a.trace_path is None

    def test_artifacts_written_and_paths_on_result(self, tmp_path):
        _install(observability=self._options(tmp_path))
        result = run_point()
        import json

        from repro.obs import validate_jsonl

        for attr in ("trace_path", "trace_chrome_path", "metrics_path", "profile_path"):
            path = getattr(result, attr)
            assert path is not None and (tmp_path / "obs").exists()
        assert validate_jsonl(result.trace_path) == []
        assert json.loads(
            open(result.trace_chrome_path).read()
        )["traceEvents"]
        assert json.loads(open(result.profile_path).read())["events"] > 0
        metrics_lines = open(result.metrics_path).read().splitlines()
        assert len(metrics_lines) >= 2  # meta header + samples

    def test_observed_runs_bypass_caches(self, tmp_path):
        _install(
            cache=tmp_path / "cache",
            observability=self._options(tmp_path, profile=False),
        )
        a = run_point()
        b = run_point()
        assert a is not b  # memo bypassed: each run has its own trace
        assert run_stats.executed == 2
        assert len(disk_cache()) == 0  # instrumented results not persisted

    def test_disabling_restores_caching(self, tmp_path):
        _install(observability=self._options(tmp_path, profile=False))
        run_point()
        _install()
        a = run_point()
        b = run_point()
        assert a is b
        assert a.trace_path is None

    def test_run_many_observed(self, tmp_path):
        _install(
            observability=self._options(
                tmp_path, trace=False, metrics_interval=500, profile=False
            )
        )
        results = run_many(
            [
                ExperimentPoint(workload="gups", scale=Scale.tiny()),
                ExperimentPoint(workload="mt", scale=Scale.tiny()),
            ]
        )
        assert all(r.metrics_path is not None for r in results)
        assert all(r.trace_path is None for r in results)
        stems = {r.metrics_path for r in results}
        assert len(stems) == 2  # per-point artifact files


class TestExperimentScale:
    def test_quick_subset(self):
        exp = ExperimentScale.quick()
        assert "gups" in exp.workload_names()
        assert len(exp.workload_names()) < 15

    def test_standard_covers_all(self):
        assert len(ExperimentScale.standard().workload_names()) == 15

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        quick = ExperimentScale.from_env()
        assert quick.scale == Scale.small()
        assert len(quick.workload_names()) < 15
        monkeypatch.setenv("REPRO_SCALE", "standard")
        assert ExperimentScale.from_env().scale == Scale.small()
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert ExperimentScale.from_env().scale == Scale.default()
        monkeypatch.delenv("REPRO_SCALE")
        assert ExperimentScale.from_env().scale == Scale.small()


class PublishingCache(ResultCache):
    """A cache on which a peer publishes the point, and releases its
    claim, in the instant between this process's miss and its claim win."""

    def __init__(self, root, point, result):
        super().__init__(root)
        self.point = point
        self.result = result

    def claim(self, key):
        self.put(self.point, self.result)
        return super().claim(key)


class TestPeerRecheck:
    """Regression: a claim win is not an execution licence — the runner
    rechecks the cache after winning, like the campaign server does."""

    @pytest.mark.parametrize("entry", ["run_one", "run_many"])
    def test_result_published_before_the_claim_win_is_served(self, tmp_path, entry):
        from repro.experiments.cache import fingerprint
        from repro.stats.collectors import RunStats
        from repro.stats.report import RunResult

        point = ExperimentPoint(workload="gups", scale=Scale.tiny()).normalized()
        published = RunResult(
            workload="gups", config_label="peer", cycles=123, stats=RunStats()
        )
        cache = PublishingCache(tmp_path, point, published)
        ctx = RunContext(cache=cache)
        # "run_one": a point as declared; "run_many": already normalized
        declared = ExperimentPoint(workload="gups", scale=Scale.tiny())
        (result,) = run_many([declared if entry == "run_one" else point], ctx=ctx)
        assert result.cycles == 123
        assert run_stats.executed == 0
        assert run_stats.inflight_hits == 1
        assert run_stats.disk_hits == 0
        assert cache.claim_state(fingerprint(point)) == "free"


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_failed_execution_releases_its_claims(tmp_path, jobs):
    from repro.experiments.cache import fingerprint

    ctx = RunContext(cache=ResultCache(tmp_path))
    points = [
        ExperimentPoint(workload=name, scale=Scale.tiny()).normalized()
        for name in ("no-such-workload", "nor-this-one")
    ]
    with pytest.raises(KeyError):
        run_many(points, jobs=jobs, ctx=ctx)
    for point in points:
        assert ctx.cache.claim_state(fingerprint(point)) == "free"
    with pytest.raises(KeyError):
        run_point("no-such-workload", ctx=ctx)
    assert ctx.cache.claim_state(fingerprint(points[0])) == "free"


class TestRunContext:
    @pytest.mark.parametrize(
        "sharding",
        [
            dict(n_shards=0),
            dict(n_shards=-2, parallel=False),
        ],
        ids=["zero-shards", "negative-shards-sequential"],
    )
    def test_bad_sharding_rejected_at_construction(self, sharding):
        from repro.shard.build import ShardingOptions

        with pytest.raises(ValueError):
            RunContext(sharding=ShardingOptions(**sharding))

    def test_bad_values_rejected(self):
        from repro.experiments.runner import CheckpointOptions

        with pytest.raises(ValueError):
            RunContext(jobs=0)
        with pytest.raises(ValueError):
            RunContext(observability=ObservabilityOptions(trace_sample=0))
        with pytest.raises(ValueError):
            RunContext(checkpointing=CheckpointOptions(every=0))
        with pytest.raises(ValueError):
            RunContext(system_overrides={"link_bw_overrides": (("up", 32.0),)})

    def test_inactive_options_normalize_to_none(self):
        from repro.shard.build import ShardingOptions

        ctx = RunContext(
            observability=ObservabilityOptions(), sharding=ShardingOptions()
        )
        assert ctx.observability is None and ctx.sharding is None

    def test_from_env(self, monkeypatch, tmp_path):
        for name in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SHARDS"):
            monkeypatch.delenv(name, raising=False)
        assert RunContext.from_env() == RunContext()
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SHARDS", "2")
        ctx = RunContext.from_env()
        assert ctx.jobs == 3
        assert ctx.cache.root == tmp_path
        assert ctx.sharding.n_shards == 2
        # explicit fields win and leave their variables unread
        assert RunContext.from_env(cache=None).cache is None
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(ValueError):
            RunContext.from_env()

    def test_explicit_context_overrides_the_installed_one(self, tmp_path):
        ctx = RunContext(cache=ResultCache(tmp_path))
        run_point(ctx=ctx)
        assert len(ctx.cache) == 1
        assert current_context().cache is None

    def test_system_overrides_reshape_points(self):
        ctx = RunContext(system_overrides={"inter_topology": "ring"})
        point = ExperimentPoint(workload="gups").normalized(ctx)
        assert point.system.inter_topology == "ring"
        assert ExperimentPoint(workload="gups").normalized().system == (
            SystemConfig.default()
        )


SPAWN_CLIENT = """\
import json, multiprocessing, sys
from pathlib import Path

from repro.bench.smoke import results_digest
from repro.experiments.runner import (
    CheckpointOptions, ExperimentPoint, ObservabilityOptions, RunContext,
    run_many,
)
from repro.shard.build import ShardingOptions
from repro.workloads.base import Scale

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    out = Path(sys.argv[1])
    ctx = RunContext(
        jobs=2,
        observability=ObservabilityOptions(trace=True, out_dir=str(out / "obs")),
        sharding=ShardingOptions(n_shards=2),
        checkpointing=CheckpointOptions(directory=str(out / "ckpt")),
    )
    points = [
        ExperimentPoint(workload=w, scale=Scale.tiny()) for w in ("gups", "mt")
    ]
    results = run_many(points, ctx=ctx)
    print(json.dumps({
        "digest": results_digest([r.to_dict() for r in results]),
        "traces": [r.trace_path for r in results],
        "snapshots": sorted(p.name for p in (out / "ckpt").glob("*.ckpt")),
    }))
"""


def test_spawned_workers_get_the_full_context(tmp_path):
    """Pool workers started with ``spawn`` (no inherited module state)
    trace, shard and checkpoint exactly like forked ones, and their
    results match an in-process serial run."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.bench.smoke import results_digest

    (tmp_path / "client.py").write_text(SPAWN_CLIENT)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "client.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(path and Path(path).exists() for path in report["traces"]), report
    assert len(set(report["traces"])) == 2
    assert len(report["snapshots"]) == 2, report

    serial = run_many(
        [ExperimentPoint(workload=w, scale=Scale.tiny()) for w in ("gups", "mt")],
        jobs=1,
        use_cache=False,
    )
    assert report["digest"] == results_digest([r.to_dict() for r in serial])
