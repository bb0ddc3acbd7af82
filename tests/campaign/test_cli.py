"""Tests for the campaign CLI surface and the blocking client helpers.

Full serve/submit/fetch round trips run in the server test suite (and
the CI campaign-smoke job); here we cover the CLI's failure modes and
the client's endpoint plumbing, which need no live server.
"""

import json

import pytest

from repro.campaign.__main__ import main
from repro.campaign.client import (
    CampaignClientError,
    discover_endpoint,
    parse_endpoint,
    request,
)
from repro.campaign.journal import CampaignJournal


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:7791") == ("127.0.0.1", 7791)

    @pytest.mark.parametrize("bad", ["", "localhost", ":80", "host:port"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(CampaignClientError):
            parse_endpoint(bad)


class TestDiscovery:
    def test_no_endpoint_file_fails_loudly(self, tmp_path):
        with pytest.raises(CampaignClientError, match="no campaign server"):
            discover_endpoint(str(tmp_path))

    def test_published_endpoint_discovered(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.publish_endpoint("127.0.0.1", 4141)
        assert discover_endpoint(str(tmp_path)) == ("127.0.0.1", 4141)

    def test_discovery_leaves_inflight_temp_files(self, tmp_path):
        """Discovery reads ``server.json`` only: a temp file the running
        server is about to publish must survive a client's lookup."""
        journal = CampaignJournal(tmp_path)
        journal.publish_endpoint("127.0.0.1", 4141)
        pending = tmp_path / "campaigns" / "abc.json.x1.tmp"
        pending.write_text("{")
        assert discover_endpoint(str(tmp_path)) == ("127.0.0.1", 4141)
        assert pending.exists()

    def test_unreachable_server_raises(self, tmp_path):
        # a published endpoint nobody is listening on: connection refused,
        # surfaced as a client error rather than a raw OSError
        with pytest.raises(CampaignClientError, match="cannot reach"):
            request(("127.0.0.1", 1), {"op": "ping"}, timeout=2.0)


class TestCliErrors:
    def test_bad_campaign_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"workloads": []}}))
        code = main(["--journal-dir", str(tmp_path), "submit", str(bad)])
        assert code == 2
        assert "bad campaign file" in capsys.readouterr().err

    def test_no_server_exits_1(self, tmp_path, capsys):
        good = tmp_path / "ok.json"
        good.write_text(json.dumps({"grid": {"workloads": ["gups"]}}))
        code = main(["--journal-dir", str(tmp_path), "submit", str(good)])
        assert code == 1
        assert "no campaign server" in capsys.readouterr().err

    def test_status_without_server_exits_1(self, tmp_path):
        assert main(["--journal-dir", str(tmp_path), "status"]) == 1

    def test_explicit_endpoint_overrides_discovery(self, tmp_path, capsys):
        # port 1 is never listening: the explicit endpoint is used (and
        # fails to connect) even though no endpoint file exists either
        code = main(
            ["--journal-dir", str(tmp_path), "--endpoint", "127.0.0.1:1", "status"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_jobs_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--journal-dir", str(tmp_path), "serve", "--jobs", "0"])
