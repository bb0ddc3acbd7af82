"""Tests for the persistent result cache's fingerprinting and storage."""

import json

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import ResultCache, default_cache_dir, fingerprint
from repro.experiments.runner import ExperimentPoint
from repro.stats.collectors import RunStats
from repro.stats.report import RunResult
from repro.workloads.base import Scale


def _point(**overrides):
    return ExperimentPoint(workload="gups", scale=Scale.tiny(), **overrides).normalized()


def _result(cycles=123):
    return RunResult(workload="gups", config_label="c", cycles=cycles, stats=RunStats())


class TestFingerprint:
    def test_stable_across_equal_points(self):
        assert fingerprint(_point()) == fingerprint(_point())

    def test_content_not_identity(self):
        a = _point(system=SystemConfig.default())
        b = _point(system=SystemConfig.default().with_overrides())
        assert a.system is not b.system
        assert fingerprint(a) == fingerprint(b)

    def test_sensitive_to_every_config_layer(self):
        base = fingerprint(_point())
        assert fingerprint(_point(netcrafter=NetCrafterConfig.full())) != base
        assert fingerprint(_point(seed=1)) != base
        assert (
            fingerprint(
                _point(system=SystemConfig.default().with_overrides(flit_size=32))
            )
            != base
        )
        assert (
            fingerprint(ExperimentPoint(workload="mt", scale=Scale.tiny()).normalized())
            != base
        )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_point()) is None
        cache.put(_point(), _result())
        loaded = cache.get(_point())
        assert loaded is not None
        assert loaded.cycles == 123
        assert cache.misses == 1 and cache.hits == 1 and cache.writes == 1
        assert len(cache) == 1

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result(cycles=1))
        cache.put(_point(), _result(cycles=2))
        assert cache.get(_point()).cycles == 2
        assert len(cache) == 1

    def test_corrupt_entry_removed_and_missed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        path = cache.path_for(fingerprint(_point()))
        path.write_text("not json at all")
        assert cache.get(_point()) is None
        assert not path.exists()
        assert cache.corrupt == 1

    def test_stale_result_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        path = cache.path_for(fingerprint(_point()))
        payload = json.loads(path.read_text())
        payload["result"]["schema"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(_point()) is None

    def test_legacy_latency_samples_payload_is_a_miss(self, tmp_path):
        """Regression: pre-histogram entries (raw ``samples`` lists in
        every LatencyStat) must read as misses and be removed — never as
        errors, and never as results with silently empty percentiles."""
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        path = cache.path_for(fingerprint(_point()))
        payload = json.loads(path.read_text())
        for value in payload["result"]["stats"].values():
            if isinstance(value, dict) and "__latency__" in value:
                stat = value["__latency__"]
                del stat["hist"]
                stat["samples"] = [10, 20, 30]
        path.write_text(json.dumps(payload))
        assert cache.get(_point()) is None
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        cache.put(_point(seed=1), _result())
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCrashRecovery:
    """Regression: ``put()`` used to write entries in place, so a crash
    mid-write left a torn JSON file served as a corrupt entry, and a
    crash between temp-write and rename (now that publishing is atomic)
    would leave ``*.tmp`` orphans forever.  Publishing is now
    write-temp + flush + fsync + ``os.replace``, and opening the cache
    sweeps orphaned temp files."""

    def test_orphan_tmp_files_swept_on_open(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        shard_dir = cache.path_for(fingerprint(_point())).parent
        (shard_dir / "deadbeef.json.abc123.tmp").write_text("{torn")
        (tmp_path / "stray.def456.tmp").write_text("")
        reopened = ResultCache(tmp_path)
        assert reopened.swept_orphans == 2
        assert not list(tmp_path.rglob("*.tmp"))
        # the real entry survived the sweep
        assert reopened.get(_point()).cycles == 123

    def test_crash_between_write_and_rename_leaves_no_entry(
        self, tmp_path, monkeypatch
    ):
        import repro.atomicio as atomicio

        cache = ResultCache(tmp_path)

        def crash(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr(atomicio.os, "replace", crash)
        try:
            cache.put(_point(), _result())
        except OSError:
            pass
        monkeypatch.undo()
        # nothing was published...
        assert not cache.path_for(fingerprint(_point())).exists()
        assert ResultCache(tmp_path).get(_point()) is None
        # ...and a fresh open sweeps whatever temp debris the crash left
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_publish_preserves_the_previous_entry(
        self, tmp_path, monkeypatch
    ):
        import repro.atomicio as atomicio

        cache = ResultCache(tmp_path)
        cache.put(_point(), _result(cycles=1))

        def crash(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr(atomicio.os, "replace", crash)
        try:
            cache.put(_point(), _result(cycles=2))
        except OSError:
            pass
        monkeypatch.undo()
        assert ResultCache(tmp_path).get(_point()).cycles == 1

    def test_torn_entry_reads_as_miss_and_is_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        path = cache.path_for(fingerprint(_point()))
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # torn mid-write
        assert cache.get(_point()) is None
        assert not path.exists()


class TestQuarantine:
    """Corrupt entries read as misses and are moved aside — never served,
    never silently destroyed — so the slot rewrites cleanly while the
    evidence survives for post-mortem."""

    def _corrupt(self, cache):
        cache.put(_point(), _result())
        path = cache.path_for(fingerprint(_point()))
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # deliberately truncated
        return path

    def test_truncated_entry_quarantined_not_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = self._corrupt(cache)
        assert cache.get(_point()) is None
        assert not path.exists()
        moved = cache.quarantine_dir / path.name
        assert moved.exists()
        assert cache.corrupt == 1
        assert cache.misses == 1

    def test_slot_rewrites_cleanly_after_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._corrupt(cache)
        assert cache.get(_point()) is None
        cache.put(_point(), _result(cycles=7))
        assert cache.get(_point()).cycles == 7

    def test_quarantined_entries_do_not_count_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._corrupt(cache)
        cache.get(_point())
        assert len(cache) == 0
        assert cache.info()["quarantined"] == 1

    def test_runner_stats_count_quarantined_entries(self, tmp_path):
        """Regression (satellite): a truncated disk entry behind run_one
        must read as a miss, re-simulate, and be tallied in
        ExecutionStats.corrupt_entries — never crash the sweep."""
        from repro.experiments.runner import (
            RunContext,
            clear_cache,
            reset_run_stats,
            run_one,
            run_stats,
        )

        ctx = RunContext(cache=ResultCache(tmp_path))
        clear_cache()
        reset_run_stats()
        try:
            first = run_one("gups", scale=Scale.tiny(), ctx=ctx)
            cache = ResultCache(tmp_path)
            path = cache.path_for(fingerprint(_point()))
            blob = path.read_text()
            path.write_text(blob[: len(blob) // 2])
            clear_cache()  # force the disk read
            again = run_one("gups", scale=Scale.tiny(), ctx=ctx)
            assert again.cycles == first.cycles
            assert run_stats.corrupt_entries == 1
            assert run_stats.executed == 2
        finally:
            clear_cache()
            reset_run_stats()


class TestClaims:
    """In-flight execution claims: the cross-process exactly-once lease."""

    KEY = "deadbeef" * 8

    def test_claim_is_exclusive_until_released(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim_state(self.KEY) == "free"
        assert cache.claim(self.KEY)
        assert cache.claim_state(self.KEY) == "held"
        assert not cache.claim(self.KEY)
        cache.release(self.KEY)
        assert cache.claim_state(self.KEY) == "free"
        assert cache.claim(self.KEY)
        cache.release(self.KEY)

    def test_release_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.release(self.KEY)
        cache.claim(self.KEY)
        cache.release(self.KEY)
        cache.release(self.KEY)

    def test_stale_claim_from_dead_holder_is_stolen(self, tmp_path):
        import subprocess
        import sys

        cache = ResultCache(tmp_path)
        # a claim whose recorded pid no longer exists: fabricate one from
        # a process that has already exited and been reaped
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        cache.inflight_dir.mkdir(parents=True, exist_ok=True)
        cache._claim_path(self.KEY).write_text(
            json.dumps({"pid": proc.pid, "time": 0.0})
        )
        assert cache.claim_state(self.KEY) == "stale"
        # the next claimant steals it and becomes the live holder
        assert cache.claim(self.KEY)
        assert cache.claim_state(self.KEY) == "held"
        cache.release(self.KEY)

    def test_torn_claim_file_reads_as_stale(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.inflight_dir.mkdir(parents=True, exist_ok=True)
        cache._claim_path(self.KEY).write_text("{torn")
        assert cache.claim_state(self.KEY) == "stale"
        assert cache.claim(self.KEY)
        cache.release(self.KEY)

    def test_claim_is_published_complete(self, tmp_path, monkeypatch):
        """A waiter probing after any file creation or link inside
        ``claim`` sees no claim or a live one, never a half-written claim
        (which reads as stale and would get the live claim unlinked)."""
        import os

        cache = ResultCache(tmp_path)
        seen = []

        def probed(real):
            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.append(cache.claim_state(self.KEY))
                return out

            return call

        monkeypatch.setattr(os, "open", probed(os.open))
        monkeypatch.setattr(os, "link", probed(os.link))
        assert cache.claim(self.KEY)
        monkeypatch.undo()
        assert seen and "stale" not in seen, seen
        assert seen[-1] == "held"
        assert list(cache.inflight_dir.iterdir()) == [cache._claim_path(self.KEY)]
        cache.release(self.KEY)

    def test_claims_do_not_count_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.claim(self.KEY)
        assert len(cache) == 0
        assert cache.info()["inflight_claims"] == 1
        cache.release(self.KEY)
        assert cache.info()["inflight_claims"] == 0


class TestAcquire:
    """The one claim-or-follow step shared by the runner and the server."""

    def test_statuses(self, tmp_path):
        from repro.experiments.cache import acquire

        cache = ResultCache(tmp_path)
        key = fingerprint(_point())
        assert acquire(cache, key) == ("owned", None)
        assert cache.claim_state(key) == "held"
        assert acquire(cache, key) == ("busy", None)
        cache.put(_point(), _result())
        cache.release(key)
        status, result = acquire(cache, key)
        assert status == "hit" and result.cycles == 123
        assert cache.claim_state(key) == "free"

    def test_peer_result_after_the_claim_win(self, tmp_path):
        from repro.experiments.cache import acquire

        calls = []

        class Peer:
            """Publishes the point between the miss and the claim."""

            def __init__(self, inner):
                self.inner = inner

            def get_by_key(self, key):
                calls.append("get")
                return self.inner.get_by_key(key)

            def claim(self, key):
                calls.append("claim")
                self.inner.put(_point(), _result())
                return self.inner.claim(key)

            def release(self, key):
                calls.append("release")
                self.inner.release(key)

        cache = ResultCache(tmp_path)
        key = fingerprint(_point())
        status, result = acquire(Peer(cache), key)
        assert status == "peer" and result.cycles == 123
        assert calls == ["get", "claim", "get", "release"]
        assert cache.claim_state(key) == "free"


class TestMaintenance:
    def test_info_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        cache.put(_point(seed=1), _result())
        info = cache.info()
        assert info["entries"] == 2
        assert info["total_bytes"] > 0
        assert info["oldest_age_seconds"] >= 0.0

    def test_prune_by_age(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        cache.put(_point(seed=1), _result())
        old = cache.path_for(fingerprint(_point()))
        stale = time.time() - 10_000
        os.utime(old, (stale, stale))
        pruned = cache.prune_older_than(5_000)
        assert pruned["removed"] == 1 and pruned["freed_bytes"] > 0
        assert len(cache) == 1
        assert cache.get(_point()) is None
        assert cache.get(_point(seed=1)) is not None


class TestCacheCli:
    def _populate(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_point(), _result())
        cache.put(_point(seed=1), _result())
        return cache

    def test_info(self, tmp_path, capsys):
        from repro.experiments.cache import main

        self._populate(tmp_path)
        assert main(["--dir", str(tmp_path), "--info"]) == 0
        out = capsys.readouterr().out
        assert "entries:          2" in out
        assert str(tmp_path) in out

    def test_prune_age(self, tmp_path, capsys):
        import os
        import time

        from repro.experiments.cache import main

        cache = self._populate(tmp_path)
        old = cache.path_for(fingerprint(_point()))
        stale = time.time() - 3 * 86400
        os.utime(old, (stale, stale))
        assert main(["--dir", str(tmp_path), "--prune-age", "1"]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == 1

    def test_clear_quarantine(self, tmp_path, capsys):
        from repro.experiments.cache import main

        cache = self._populate(tmp_path)
        path = cache.path_for(fingerprint(_point()))
        path.write_text("{torn")
        cache.get(_point())
        assert cache.info()["quarantined"] == 1
        assert main(["--dir", str(tmp_path), "--clear-quarantine"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert ResultCache(tmp_path).info()["quarantined"] == 0

    def test_no_action_errors(self, tmp_path):
        import pytest

        from repro.experiments.cache import main

        with pytest.raises(SystemExit):
            main(["--dir", str(tmp_path)])


def test_default_cache_dir_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir() == ".repro_cache"
