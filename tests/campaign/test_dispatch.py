"""The campaign server's per-point path, observed through recorded events.

A recording executor runs each point inline when it is submitted, and a
recording cache and watcher log every ``put``, cache read, claim release
and ``served`` event in order, so the tests can check when the server
hands the pool its next point relative to publishing the last one, how
often it journals, and how much fixed work each served point costs.
"""

import asyncio
import json
import threading
from collections import Counter
from concurrent.futures import Executor, Future, ThreadPoolExecutor

from repro.campaign.journal import CampaignJournal
from repro.campaign.server import CampaignServer
from repro.campaign.spec import parse_campaign
from repro.experiments import cache as cache_module
from repro.experiments import runner as runner_module
from repro.experiments.cache import _json_default, fingerprint, point_descriptor
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

    def get_by_key(self, key):
        self.log.append(("read", key))
        return self._cache.get_by_key(key)

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


async def _request(server, payload):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return json.loads(line)


def _reference_entry(point):
    """A cache entry's bytes as the cache wrote them before it spliced
    stored encodings: one ``json.dumps`` of the whole entry."""
    payload = {
        "key": fingerprint(point),
        "point": point_descriptor(point),
        "result": _execute(point)[0].to_dict(),
    }
    return json.dumps(payload, default=_json_default)


class TestFixedCostsPaidOnce:
    def test_a_served_point_pays_its_identity_and_encoding_once(
        self, tmp_path, monkeypatch
    ):
        spec = _spec(workloads=("gups", "mt", "bs"))
        n = len(spec.points)
        reference = {point.identity[1]: _reference_entry(point) for point in spec.points}
        calls = Counter()

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        # every identity and conversion made after parse_campaign returned
        monkeypatch.setattr(
            cache_module, "point_descriptor", counting("point_descriptor", point_descriptor)
        )
        monkeypatch.setattr(
            runner_module,
            "point_identity",
            counting("point_identity", runner_module.point_identity),
        )
        monkeypatch.setattr(RunResult, "to_dict", counting("to_dict", RunResult.to_dict))
        log = []

        async def scenario():
            server = _server(tmp_path, log)
            await server.start()
            try:
                server.submit(spec)
                submit_reads = sum(1 for what, _ in log if what == "read")
                await _wait_complete(server, spec.campaign_id)
                dispatch_reads = sum(1 for what, _ in log if what == "read") - submit_reads
                fetched = await _request(server, {"op": "fetch", "campaign": spec.campaign_id})
            finally:
                await server.stop()
            return submit_reads, dispatch_reads, fetched

        submit_reads, dispatch_reads, fetched = asyncio.run(scenario())
        puts = [fp for what, fp in log if what == "put"]
        assert sorted(puts) == sorted(spec.fingerprints) and len(puts) == n
        assert calls["point_descriptor"] == calls["point_identity"] == 0
        assert calls["to_dict"] == n  # the fetch converted nothing again
        # the submit-time probe, then acquire's miss and post-claim re-check
        assert submit_reads == n
        assert dispatch_reads <= 2 * n
        assert fetched["ok"] and fetched["points"] == n
        cache = cache_module.ResultCache(tmp_path / "cache")
        for fp, expected in reference.items():
            assert cache.path_for(fp).read_text() == expected


class ListWatcher:
    """A watcher queue standing in next to a socket watcher: records the
    line each event it is handed takes on the wire."""

    def __init__(self):
        self.lines = []

    def put_nowait(self, event):
        self.lines.append(json.dumps(event))


async def _watch_lines(server, cid):
    """Open a watch; returns the reader once the snapshot arrived, and
    the connection's writer."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(json.dumps({"op": "watch", "campaign": cid}).encode() + b"\n")
    await writer.drain()
    snapshot = json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))
    assert snapshot["event"] == "snapshot"
    return reader, writer


class TestWatchStream:
    def test_overlapping_watchers_get_every_event_once_in_order(self, tmp_path):
        low = _spec(workloads=("gups", "mt"), priority=1, name="low")
        high = _spec(workloads=("mt", "bs"), priority=9, name="high")
        go = threading.Event()

        def gated(point):
            go.wait(timeout=30.0)
            return _execute(point)

        async def scenario():
            server = CampaignServer(
                cache_dir=str(tmp_path / "cache"),
                journal_dir=str(tmp_path / "journal"),
                jobs=1,
                executor=ThreadPoolExecutor(max_workers=1),
                execute_fn=gated,
            )
            await server.start()
            try:
                server.submit(low)
                server.submit(high)
                streams = {}
                for spec in (low, high):
                    reader, writer = await _watch_lines(server, spec.campaign_id)
                    # registered after the socket watcher, so both see
                    # the same events from here on
                    recorded = ListWatcher()
                    server.campaigns[spec.campaign_id].watchers.append(recorded)
                    streams[spec.campaign_id] = (reader, writer, recorded)
                go.set()
                received = {}
                for cid, (reader, writer, recorded) in streams.items():
                    lines = []
                    while True:
                        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                        assert line, "watch stream closed before completion"
                        lines.append(line.decode().rstrip("\n"))
                        event = json.loads(line)
                        if event.get("event") == "campaign" and event.get("state") == "complete":
                            break
                    writer.close()
                    await writer.wait_closed()
                    received[cid] = (lines, recorded.lines)
            finally:
                await server.stop()
                server._executor.shutdown(wait=True)
            return received

        received = asyncio.run(scenario())
        for cid, (lines, recorded) in received.items():
            # one line per emitted event, in emission order, ending at the
            # campaign's completion: what one write per event sent
            assert lines == recorded[: len(lines)]
            assert json.loads(lines[-1])["state"] == "complete"
            served = [json.loads(line) for line in lines if '"served"' in line]
            assert {e["fingerprint"] for e in served} <= set(
                low.fingerprints if cid == low.campaign_id else high.fingerprints
            )
        shared = set(low.fingerprints) & set(high.fingerprints)
        assert shared
        for fp in shared:
            for lines, _ in received.values():
                assert sum(1 for line in lines if fp in line and '"served"' in line) == 1

    def test_a_batch_ends_at_the_campaigns_completion(self, tmp_path):
        spec = _spec(workloads=("gups",))
        go = threading.Event()

        def gated(point):
            go.wait(timeout=30.0)
            return _execute(point)

        async def scenario():
            server = CampaignServer(
                cache_dir=str(tmp_path / "cache"),
                journal_dir=str(tmp_path / "journal"),
                jobs=1,
                executor=ThreadPoolExecutor(max_workers=1),
                execute_fn=gated,
            )
            await server.start()
            try:
                server.submit(spec)
                reader, writer = await _watch_lines(server, spec.campaign_id)
                campaign = server.campaigns[spec.campaign_id]
                # queued in one loop step, so the watcher takes both in
                # one batch: nothing after the completion goes out
                server._emit(campaign, {"event": "campaign", "state": "complete"})
                server._emit(campaign, {"event": "campaign", "state": "after"})
                lines = []
                while line := await asyncio.wait_for(reader.readline(), timeout=10.0):
                    lines.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
            finally:
                go.set()
                await server.stop()
                server._executor.shutdown(wait=True)
            return lines

        lines = asyncio.run(scenario())
        assert [line["state"] for line in lines] == ["complete"]
