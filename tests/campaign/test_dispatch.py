"""The campaign server's per-point path, observed through recorded events.

A recording executor runs each point inline when it is submitted, and a
recording cache and watcher log every ``put``, claim release and
``served`` event in order, so the tests can check when the server hands
the pool its next point relative to publishing the last one, and how
often it journals.
"""

import asyncio
import json
from concurrent.futures import Executor, Future

from repro.campaign.journal import CampaignJournal
from repro.campaign.server import CampaignServer
from repro.campaign.spec import parse_campaign
from repro.experiments.cache import fingerprint
from repro.stats.collectors import RunStats
from repro.stats.report import RunResult


def _spec(workloads=("gups", "mt"), priority=0, name="t"):
    return parse_campaign(
        {
            "name": name,
            "priority": priority,
            "grid": {
                "workloads": list(workloads),
                "variants": ["baseline", "full"],
                "scale": "tiny",
            },
        }
    )


def _execute(point):
    result = RunResult(
        workload=point.workload,
        config_label="test",
        cycles=1000 + len(point.workload),
        stats=RunStats(),
    )
    return result, 0.001


class RecordingExecutor(Executor):
    """Runs each submitted point inline and logs the submission."""

    def __init__(self, log):
        self.log = log

    def submit(self, fn, *args):
        (point,) = args
        self.log.append(("submit", fingerprint(point)))
        future = Future()
        future.set_result(fn(point))
        return future


class RecordingCache:
    """Delegates to the server's cache, logging puts and releases."""

    def __init__(self, cache, log):
        self._cache = cache
        self.log = log

    def put(self, point, result):
        fp = fingerprint(point)
        self.log.append(("put", fp))
        self._cache.put(point, result)
        self.log.append(("put_done", fp))

    def release(self, key):
        self.log.append(("release", key))
        self._cache.release(key)

    def __getattr__(self, name):
        return getattr(self._cache, name)


class RecordingWatcher:
    """Stands in for a watcher's queue: logs served points in order."""

    def __init__(self, log):
        self.log = log

    def put_nowait(self, event):
        if event.get("event") == "point" and event.get("state") == "served":
            self.log.append(("served", event["fingerprint"]))


def _server(tmp_path, log):
    server = CampaignServer(
        cache_dir=str(tmp_path / "cache"),
        journal_dir=str(tmp_path / "journal"),
        jobs=1,
        executor=RecordingExecutor(log),
        execute_fn=_execute,
    )
    server.cache = RecordingCache(server.cache, log)
    return server


async def _wait_complete(server, cid):
    for _ in range(1000):
        if server.campaigns[cid].complete:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"campaign {cid} incomplete: {server.campaigns[cid].progress()}")


def _serve(tmp_path, log, specs):
    """Submit ``specs`` in one event-loop step and serve them to completion."""

    async def scenario():
        server = _server(tmp_path, log)
        await server.start()
        try:
            for spec in specs:
                server.submit(spec)
                server.campaigns[spec.campaign_id].watchers.append(
                    RecordingWatcher(log)
                )
            for spec in specs:
                await _wait_complete(server, spec.campaign_id)
        finally:
            await server.stop()
        return server

    return asyncio.run(scenario())


def _index(log, what, fp):
    return log.index((what, fp))


class TestOverlap:
    def test_next_point_submitted_before_previous_put_returns(self, tmp_path):
        log = []
        spec = _spec()
        _serve(tmp_path, log, [spec])
        order = [fp for what, fp in log if what == "submit"]
        assert sorted(order) == sorted(spec.fingerprints)
        for done, following in zip(order, order[1:]):
            assert _index(log, "submit", following) < _index(log, "put", done), log

    def test_served_after_put_and_claim_released_after_put(self, tmp_path):
        log = []
        spec = _spec()
        server = _serve(tmp_path, log, [spec])
        for fp in spec.fingerprints:
            put_done = _index(log, "put_done", fp)
            assert _index(log, "put", fp) < put_done
            assert put_done < _index(log, "release", fp) < _index(log, "served", fp)
        # finished points drop their point
        assert all(task.point is None for task in server.tasks.values())
        assert server.metrics.get("points_executed") == 4

    def test_priority_order_and_dedupe_unchanged(self, tmp_path):
        log = []
        low = _spec(workloads=("gups", "mt"), priority=1, name="low")
        high = _spec(workloads=("mt", "bs"), priority=90, name="high")
        server = _serve(tmp_path, log, [low, high])
        submitted = [fp for what, fp in log if what == "submit"]
        # the shared mt points run once, at the higher priority, and the
        # high campaign's points all run before the low campaign's rest
        assert len(submitted) == len(set(submitted)) == 6
        assert set(submitted[:4]) == set(high.fingerprints)
        assert submitted[4:] == [fp for fp in low.fingerprints if fp not in high.fingerprints]
        assert server.metrics.get("points_deduped_inflight") == 2


class TestWriteOnceJournal:
    def test_one_save_per_campaign_and_none_per_point(self, tmp_path, monkeypatch):
        saves = []
        real_save = CampaignJournal.save

        def counting_save(journal, record):
            saves.append(record["id"])
            real_save(journal, record)

        monkeypatch.setattr(CampaignJournal, "save", counting_save)
        log = []
        a = _spec(workloads=("gups",), name="a")
        b = _spec(workloads=("gups", "mt"), name="b")

        async def scenario():
            server = _server(tmp_path, log)
            await server.start()
            try:
                server.submit(a)
                server.submit(b)
                await _wait_complete(server, a.campaign_id)
                await _wait_complete(server, b.campaign_id)
                assert saves == [a.campaign_id, b.campaign_id]
                server.submit(_spec(workloads=("gups",), name="again"))
                assert len(saves) == 2  # same priority: nothing to journal
                server.submit(_spec(workloads=("gups",), priority=7))
                assert saves == [a.campaign_id, b.campaign_id, a.campaign_id]
            finally:
                await server.stop()

        asyncio.run(scenario())
        record = CampaignJournal(tmp_path / "journal").load(a.campaign_id)
        assert record["priority"] == 7
        assert "done" not in record and "state" not in record
        assert [p["fingerprint"] for p in record["points"]] == list(a.fingerprints)
        assert all(p["descriptor"] is not None for p in record["points"])

    def test_restart_from_write_once_and_older_records_executes_nothing(self, tmp_path):
        first = _spec(workloads=("gups",), name="first")
        second = _spec(workloads=("mt",), name="second")
        _serve(tmp_path, [], [first, second])

        # rewrite one record the way servers that journaled per point
        # did: with a completion state and the done fingerprints
        journal = CampaignJournal(tmp_path / "journal")
        older = journal.load(second.campaign_id)
        older.update(state="complete", done=sorted(second.fingerprints))
        journal.save(older)

        log = []

        async def scenario():
            server = _server(tmp_path, log)
            await server.start()
            try:
                assert server.metrics.get("campaigns_recovered") == 2
                for spec in (first, second):
                    assert server.campaigns[spec.campaign_id].complete
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    writer.write(
                        json.dumps({"op": "fetch", "campaign": spec.campaign_id}).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    fetched = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    assert fetched["ok"] and fetched["points"] == 2
            finally:
                await server.stop()
            return server

        server = asyncio.run(scenario())
        assert [what for what, _ in log if what == "submit"] == []
        assert server.metrics.get("points_executed") == 0
