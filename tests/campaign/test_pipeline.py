"""The campaign server's pipeline depth, its fetch LRU, and the
descriptor memo of campaign parsing.

A hand-completed executor holds every submitted point until the test
completes its future, so the tests can see how many points the server
keeps handed to the pool and in which order it hands them over.
"""

import asyncio
import json
from concurrent.futures import Executor, Future

import pytest

from repro.bench.smoke import results_digest
from repro.campaign import server as server_module
from repro.campaign.journal import CampaignJournal
from repro.campaign.server import CampaignServer
from repro.campaign.spec import campaign_id, parse_campaign
from repro.experiments.cache import fingerprint, point_descriptor
from repro.experiments.runner import execute_point
from repro.stats.collectors import RunStats
from repro.stats.report import RunResult


def _spec(workloads=("gups", "mt"), priority=0, name="t", seeds=(0,)):
    return parse_campaign(
        {
            "name": name,
            "priority": priority,
            "grid": {
                "workloads": list(workloads),
                "variants": ["baseline", "full"],
                "seeds": list(seeds),
                "scale": "tiny",
            },
        }
    )


def _execute(point):
    result = RunResult(
        workload=point.workload,
        config_label="test",
        cycles=1000 + len(point.workload) + point.seed,
        stats=RunStats(),
    )
    return result, 0.001


class HandExecutor(Executor):
    """Holds every submitted call until :meth:`complete` runs it."""

    def __init__(self, log):
        self.log = log
        self.pending = []

    def submit(self, fn, *args):
        (point,) = args
        future = Future()
        self.pending.append((fingerprint(point), future, fn, point))
        self.log.append(("submit", fingerprint(point)))
        return future

    def complete(self):
        """Run and complete the oldest outstanding call."""
        fp, future, fn, point = self.pending.pop(0)
        self.log.append(("complete", fp))
        future.set_result(fn(point))
        return fp


class CountingCache:
    """Delegates to the server's cache, counting ``get_by_key`` reads."""

    def __init__(self, cache):
        self._cache = cache
        self.reads = 0

    def get_by_key(self, key):
        self.reads += 1
        return self._cache.get_by_key(key)

    def __getattr__(self, name):
        return getattr(self._cache, name)


def _server(tmp_path, executor, execute_fn=_execute):
    server = CampaignServer(
        cache_dir=str(tmp_path / "cache"),
        journal_dir=str(tmp_path / "journal"),
        jobs=1,
        executor=executor,
        execute_fn=execute_fn,
    )
    server.cache = CountingCache(server.cache)
    return server


async def _settle():
    """Let completion callbacks and scheduled dispatches run."""
    for _ in range(5):
        await asyncio.sleep(0)


async def _drain(executor):
    """Complete calls one at a time until none is outstanding."""
    await _settle()
    while executor.pending:
        executor.complete()
        await _settle()


async def _stop(server, executor):
    """Stop ``server``, completing the calls it waits for."""
    stopping = asyncio.get_running_loop().create_task(server.stop())
    while not stopping.done():
        if executor.pending:
            executor.complete()
        await asyncio.sleep(0.001)
    await stopping


async def _fetch(server, cid):
    reader, writer = await asyncio.open_connection(server.host, server.port, limit=1 << 24)
    writer.write(json.dumps({"op": "fetch", "campaign": cid}).encode() + b"\n")
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply


class TestPipelineDepth:
    def test_one_point_queued_behind_the_worker(self, tmp_path):
        log = []
        executor = HandExecutor(log)
        spec = _spec(workloads=("gups", "mt", "bs"))

        async def scenario():
            server = _server(tmp_path, executor)
            await server.start()
            try:
                server.submit(spec)
                await _settle()
                while executor.pending:
                    # exactly one point executing and one queued behind it
                    # until the queue runs dry
                    remaining = sum(t.state != "done" for t in server.tasks.values())
                    assert len(executor.pending) == min(2, remaining)
                    assert server._running == len(executor.pending)
                    executor.complete()
                    await _settle()
                assert server.campaigns[spec.campaign_id].complete
            finally:
                await _stop(server, executor)

        asyncio.run(scenario())
        order = [fp for what, fp in log if what == "submit"]
        assert sorted(order) == sorted(spec.fingerprints)
        # point k+1 is handed over before point k's future completes
        for done, following in zip(order, order[1:]):
            assert log.index(("submit", following)) < log.index(("complete", done)), log

    def test_urgent_campaign_waits_behind_at_most_two_dispatched_points(self, tmp_path):
        log = []
        executor = HandExecutor(log)
        low = _spec(workloads=("gups", "mt", "bs"), priority=1, name="low")
        high = _spec(workloads=("atax",), priority=90, name="high")

        async def scenario():
            server = _server(tmp_path, executor)
            await server.start()
            try:
                server.submit(low)
                await _settle()
                executor.complete()
                await _settle()
                ahead = [fp for fp, *_ in executor.pending]
                assert len(ahead) == 2 and set(ahead) <= set(low.fingerprints)
                log.append(("urgent", high.campaign_id))
                server.submit(high)
                await _drain(executor)
                assert server.campaigns[high.campaign_id].complete
                assert server.campaigns[low.campaign_id].complete
                return ahead
            finally:
                await _stop(server, executor)

        ahead = asyncio.run(scenario())
        after = log[log.index(("urgent", high.campaign_id)):]
        completed = [fp for what, fp in after if what == "complete"]
        submitted = [fp for what, fp in after if what == "submit"]
        # the urgent points are the next handed to the pool, and they
        # run once the two points already there have finished
        assert set(submitted[:2]) == set(high.fingerprints)
        assert completed[:2] == ahead
        assert set(completed[2:4]) == set(high.fingerprints)

    def test_stop_publishes_and_releases_every_dispatched_point(self, tmp_path):
        log = []
        executor = HandExecutor(log)
        spec = _spec(workloads=("gups", "mt", "bs"))

        async def scenario():
            server = _server(tmp_path, executor)
            await server.start()
            server.submit(spec)
            await _settle()
            executor.complete()
            await _settle()
            assert len(executor.pending) == 2
            await _stop(server, executor)
            return server

        server = asyncio.run(scenario())
        dispatched = [fp for what, fp in log if what == "submit"]
        assert len(dispatched) == 3
        assert all(server.cache.path_for(fp).exists() for fp in dispatched)
        assert list((tmp_path / "cache" / "inflight").glob("*.claim")) == []
        # the points never handed over stay journaled and unpublished
        rest = set(spec.fingerprints) - set(dispatched)
        assert rest and not any(server.cache.path_for(fp).exists() for fp in rest)


class TestFetchFromMemory:
    def test_fetch_of_executed_campaign_reads_no_cache_entry(self, tmp_path):
        executor = HandExecutor([])
        spec = _spec()

        async def scenario():
            server = _server(tmp_path, executor)
            await server.start()
            try:
                server.submit(spec)
                await _drain(executor)
                server.cache.reads = 0
                fetched = await _fetch(server, spec.campaign_id)
                assert fetched["ok"] and fetched["points"] == 4
                assert server.cache.reads == 0
                return fetched
            finally:
                await _stop(server, executor)

        async def from_disk():
            server = _server(tmp_path, executor)
            await server.start()
            server.cache.reads = 0  # recovery checks the cache
            try:
                fetched = await _fetch(server, spec.campaign_id)
                assert server.cache.reads == 4
                return fetched
            finally:
                await _stop(server, executor)

        in_memory = asyncio.run(scenario())
        assert asyncio.run(from_disk()) == in_memory

    def test_lru_is_bounded_and_evicted_results_come_from_the_cache(self, tmp_path):
        executor = HandExecutor([])
        seeds = range(server_module.FETCH_LRU_ENTRIES // 4 + 2)
        spec = _spec(seeds=seeds)
        total = len(spec.points)
        assert total > server_module.FETCH_LRU_ENTRIES

        async def scenario():
            server = _server(tmp_path, executor)
            await server.start()
            try:
                server.submit(spec)
                await _settle()
                while executor.pending:
                    executor.complete()
                    await _settle()
                    assert len(server._published) <= server_module.FETCH_LRU_ENTRIES
                assert len(server._published) == server_module.FETCH_LRU_ENTRIES
                server.cache.reads = 0
                fetched = await _fetch(server, spec.campaign_id)
                assert fetched["ok"] and fetched["points"] == total
                assert server.cache.reads == total - server_module.FETCH_LRU_ENTRIES
                assert len(server._published) == server_module.FETCH_LRU_ENTRIES
                return fetched
            finally:
                await _stop(server, executor)

        fetched = asyncio.run(scenario())
        cycles = [_execute(point)[0].cycles for point in spec.points]
        assert [r["cycles"] for r in fetched["results"]] == cycles

    def test_simulated_results_digest_as_read_back_from_disk(self, tmp_path):
        """The kept payload of a real run serializes exactly like the
        payload a fresh server reads back from the cache file."""
        executor = HandExecutor([])
        spec = parse_campaign(
            {"grid": {"workloads": ["gups"], "variants": ["full"], "scale": "tiny"}}
        )

        async def serve(first):
            server = _server(tmp_path, executor, execute_fn=execute_point)
            await server.start()
            try:
                if first:
                    server.submit(spec)
                    await _drain(executor)
                server.cache.reads = 0
                fetched = await _fetch(server, spec.campaign_id)
                assert server.cache.reads == (0 if first else 1)
                return fetched
            finally:
                await _stop(server, executor)

        in_memory = asyncio.run(serve(True))
        from_disk = asyncio.run(serve(False))
        assert in_memory["digest"] == from_disk["digest"]
        assert in_memory["results"] == from_disk["results"]
        assert in_memory["digest"] == results_digest(from_disk["results"])


_SMALL = {"n_clusters": 4, "gpus_per_cluster": 1}
_TINY = {
    "ctas_per_gpu": 2,
    "wavefronts_per_cta": 1,
    "accesses_per_wavefront": 6,
    "pages_per_gpu": 8,
}

GRIDS = {
    "variants": {
        "grid": {
            "workloads": ["gups", "mt"],
            "variants": ["baseline", "full", {"base": "full", "stitch_search_depth": 3}],
            "seeds": [0, 1],
            "scale": "tiny",
        }
    },
    "topologies": {
        "grid": {
            "workloads": ["gups", "pr"],
            "variants": ["full"],
            "topologies": ["ring", "star", "mesh"],
            "system": _SMALL,
            "scale": "tiny",
        }
    },
    "faults": {
        "grid": {
            "workloads": ["gups"],
            "variants": ["baseline", "full"],
            "faults": {"ber": 2e-5, "seed": 3},
            "scale": "tiny",
        },
        "points": [
            {"workload": "mt", "faults": {"drop_rate": 1e-4}},
            {"workload": "mt", "faults": {"flaps": []}},
        ],
    },
    "system_overrides": {
        "grid": {
            "workloads": ["bs", "mt"],
            "system": {"inter_link_latency": 64, "link_bw_overrides": {"inter": 8.0}},
            "scale": "small",
        },
        "points": [
            {"workload": "gups", "system": _SMALL},
            {"workload": "gups", "system": {**_SMALL, "inter_link_latency": 64}},
        ],
    },
    "equal_values_of_different_types": {
        "points": [
            {"workload": "gups", "scale": _TINY},
            {"workload": "gups", "scale": {**_TINY, "ctas_per_gpu": 2.0}},
            {"workload": "gups", "system": {"inter_link_latency": 64}},
            {"workload": "gups", "system": {"inter_link_latency": 64.0}},
        ]
    },
}


def _journal_bytes(root, spec, descriptors):
    journal = CampaignJournal(root)
    journal.save(
        {
            "id": spec.campaign_id,
            "name": spec.name,
            "priority": spec.priority,
            "submitted_at": 0.0,
            "updated_at": 0.0,
            "points": [
                {"fingerprint": fp, "label": point.label(), "descriptor": descriptor}
                for fp, point, descriptor in zip(spec.fingerprints, spec.points, descriptors)
            ],
        }
    )
    return (root / "campaigns" / f"{spec.campaign_id}.json").read_bytes()


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_memoized_descriptors_match_per_point_conversion(tmp_path, grid):
    spec = parse_campaign(GRIDS[grid], grid)
    fresh = [point_descriptor(point) for point in spec.points]
    assert list(spec.descriptors) == fresh
    assert list(spec.fingerprints) == [fingerprint(point) for point in spec.points]
    assert spec.campaign_id == campaign_id([fingerprint(point) for point in spec.points])
    assert _journal_bytes(tmp_path / "memo", spec, spec.descriptors) == _journal_bytes(
        tmp_path / "fresh", spec, fresh
    )


def test_equal_configs_of_different_types_stay_distinct_points():
    spec = parse_campaign(GRIDS["equal_values_of_different_types"])
    assert len(spec.points) == len(set(spec.fingerprints)) == 4
