"""The campaign server's edge: request size and malformed requests.

Every request gets a reply, and a bad one never costs the server its
ability to answer the next connection.
"""

import asyncio
import json

import pytest

from repro.campaign import server as server_module
from repro.campaign.server import CampaignServer
from repro.campaign.spec import parse_campaign
from repro.stats.collectors import RunStats
from repro.stats.report import RunResult


def _execute(point):
    result = RunResult(workload=point.workload, config_label="test", cycles=1000, stats=RunStats())
    return result, 0.001


async def _exchange(server, line: bytes):
    """Send one raw request line; returns the reply line (b"" if none)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(line)
    await writer.drain()
    reply = await asyncio.wait_for(reader.readline(), timeout=60.0)
    writer.close()
    await writer.wait_closed()
    return reply


def _serve(tmp_path, scenario):
    async def run():
        server = CampaignServer(
            cache_dir=str(tmp_path / "cache"),
            journal_dir=str(tmp_path / "journal"),
            jobs=1,
            execute_fn=_execute,
        )
        await server.start()
        try:
            await scenario(server)
            ping = json.loads(await _exchange(server, b'{"op": "ping"}\n'))
            assert ping["ok"]
        finally:
            # nothing submitted here needs to run
            server._queue.clear()
            await server.stop()

    asyncio.run(run())


def _large_campaign(points: int) -> dict:
    return {
        "name": "large",
        "points": [{"workload": "gups", "scale": "tiny", "seed": seed} for seed in range(points)],
    }


def test_campaign_larger_than_the_default_stream_limit_is_accepted(tmp_path):
    campaign = _large_campaign(2000)
    line = json.dumps({"op": "submit", "campaign": campaign}).encode() + b"\n"
    assert len(line) > 100 * 1024

    async def scenario(server):
        reply = json.loads(await _exchange(server, line))
        assert reply["ok"] and reply["points"] == 2000
        assert reply["campaign"] == parse_campaign(campaign).campaign_id

    _serve(tmp_path, scenario)


@pytest.mark.parametrize("limit", [None, 1024], ids=["module_limit", "small_limit"])
@pytest.mark.parametrize("excess", [1, 3 * 65536])
def test_over_limit_line_gets_an_error_reply(tmp_path, monkeypatch, limit, excess):
    if limit is not None:
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", limit)
    # the limit counts the bytes before the newline
    size = server_module.MAX_REQUEST_BYTES + excess
    prefix = b'{"op": "ping", "pad": "'
    line = prefix + b"x" * (size - len(prefix) - 2) + b'"}\n'
    assert len(line) == size + 1

    async def scenario(server):
        reply = json.loads(await _exchange(server, line))
        assert not reply["ok"] and reply["error"].startswith("request too large")

    _serve(tmp_path, scenario)


MALFORMED = {
    "list": b"[1]",
    "string": b'"x"',
    "number": b"5",
    "null": b"null",
    "bad_json": b"{",
    "invalid_utf8": b'{"op": "\xff"}',
    "op_not_a_string": b'{"op": ["ping"]}',
    "fetch_id_not_a_string": b'{"op": "fetch", "campaign": [1]}',
    "status_id_not_a_string": b'{"op": "status", "campaign": 5}',
    "watch_id_not_a_string": b'{"op": "watch", "campaign": {"id": "x"}}',
    "seed_not_a_number": b'{"op": "submit", "campaign": {"grid": {"workloads": ["gups"], '
    b'"seeds": ["x"]}}}',
    "flap_not_an_object": b'{"op": "submit", "campaign": {"points": [{"workload": "gups", '
    b'"faults": {"flaps": [1]}}]}}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_gets_an_error_reply(tmp_path, case):
    async def scenario(server):
        reply = await _exchange(server, MALFORMED[case] + b"\n")
        assert reply, "connection closed without a reply"
        reply = json.loads(reply)
        assert reply["ok"] is False and reply["error"]
        assert server.campaigns == {}

    _serve(tmp_path, scenario)
