"""Tests for the smoke sweep's grid shape, its refusal to fall back to
the single engine, and the result-digest helpers."""

import pytest

from repro.bench.smoke import (
    _DIGEST_EXCLUDED_FIELDS,
    digestable_payload,
    main,
    results_digest,
    smoke_campaign,
)


class TestGrid:
    def test_full_grid_covers_workloads_and_variants(self):
        points = smoke_campaign(quick=False)["points"]
        assert len(points) == 8
        assert all(point["variant"] in ("baseline", "full") for point in points)

    def test_quick_grid_is_a_prefix_of_the_full_grid(self):
        quick = smoke_campaign(quick=True)["points"]
        assert len(quick) == 4
        assert quick == smoke_campaign(quick=False)["points"][: len(quick)]


@pytest.mark.parametrize(
    "topology, clusters", [("mesh", 2), ("ring", 4)], ids=["mesh", "ring"]
)
def test_gate_refuses_a_shard_count_that_does_not_divide(monkeypatch, topology, clusters):
    """A sweep falls back to the single engine when the shard count does
    not divide the cluster count; the digest gate must fail instead, and
    before any point runs."""
    from repro.experiments import runner

    def no_runs(*args, **kwargs):
        raise AssertionError("the gate ran points it should have refused")

    monkeypatch.setattr(runner, "run_many", no_runs)
    with pytest.raises(ValueError, match=f"3 shards do not divide {clusters} clusters"):
        main(["--quick", "--topology", topology, "--shards", "3"])


class TestDigest:
    def test_effort_fields_are_stripped(self):
        payload = {field: 1 for field in _DIGEST_EXCLUDED_FIELDS}
        payload["cycles"] = 123
        assert digestable_payload(payload) == {"cycles": 123}

    def test_digest_stable_for_equal_payloads(self):
        a = [{"cycles": 1, "stats": {"x": 2}}]
        b = [{"stats": {"x": 2}, "cycles": 1}]  # key order is irrelevant
        assert results_digest(a) == results_digest(b)

    def test_digest_ignores_excluded_fields(self):
        base = [{"cycles": 1}]
        noisy = [{"cycles": 1, "events_processed": 999, "schema": 3}]
        assert results_digest(base) == results_digest(noisy)

    def test_digest_sensitive_to_behaviour(self):
        assert results_digest([{"cycles": 1}]) != results_digest([{"cycles": 2}])

    def test_digest_sensitive_to_run_order(self):
        a = [{"cycles": 1}, {"cycles": 2}]
        assert results_digest(a) != results_digest(list(reversed(a)))

    def test_digest_is_sha256_hex(self):
        digest = results_digest([{"cycles": 1}])
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex
