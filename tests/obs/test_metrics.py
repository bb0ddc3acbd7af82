"""Tests for the metrics time-series registry."""

import json
import pickle

import pytest

from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry


class TestRegistration:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsRegistry(0)

    def test_names_unique(self):
        reg = MetricsRegistry(100)
        reg.register("a", lambda: 0)
        with pytest.raises(ValueError):
            reg.register("a", lambda: 1)

    def test_cycle_reserved(self):
        with pytest.raises(ValueError):
            MetricsRegistry(100).register("cycle", lambda: 0)

    def test_names_in_registration_order(self):
        reg = MetricsRegistry(100)
        reg.register("b", lambda: 0)
        reg.register("a", lambda: 0)
        assert reg.names() == ["b", "a"]

    def test_pickle_keeps_names_and_series_but_not_sources(self):
        reg = MetricsRegistry(100)
        reg.register("b", lambda: 1)
        reg.register("a", lambda: 2)
        reg.sample(0)
        restored = pickle.loads(pickle.dumps(reg))
        assert restored.names() == ["b", "a"]
        assert restored.samples == [{"cycle": 0, "b": 1, "a": 2}]
        # re-registering rebinds a restored name in place, once
        restored.register("a", lambda: 3)
        restored.register("b", lambda: 4)
        with pytest.raises(ValueError):
            restored.register("a", lambda: 5)
        restored.sample(100)
        assert restored.names() == ["b", "a"]
        assert restored.samples[-1] == {"cycle": 100, "b": 4, "a": 3}


class TestSampling:
    def test_series_tracks_source(self):
        counter = {"v": 0}
        reg = MetricsRegistry(10)
        reg.register("m", lambda: counter["v"])
        for cycle in (0, 10, 20):
            counter["v"] += 5
            reg.sample(cycle)
        assert reg.series("m") == [(0, 5), (10, 10), (20, 15)]
        assert reg.latest("m") == 15

    def test_resample_same_cycle_replaces_row(self):
        counter = {"v": 1}
        reg = MetricsRegistry(10)
        reg.register("m", lambda: counter["v"])
        reg.sample(50)
        counter["v"] = 9
        reg.sample(50)  # final snapshot landing on a periodic one
        assert reg.series("m") == [(50, 9)]

    def test_unknown_series_rejected(self):
        with pytest.raises(KeyError):
            MetricsRegistry(10).series("nope")

    def test_latest_empty(self):
        reg = MetricsRegistry(10)
        reg.register("m", lambda: 1)
        assert reg.latest("m") is None

    def test_deltas(self):
        values = iter([3, 10, 10])
        reg = MetricsRegistry(10)
        reg.register("m", lambda: next(values))
        for cycle in (0, 10, 20):
            reg.sample(cycle)
        assert reg.deltas("m") == [(0, 3), (10, 7), (20, 0)]


class TestExport:
    def test_jsonl_with_meta_header(self, tmp_path):
        reg = MetricsRegistry(100)
        reg.register("m", lambda: 7)
        reg.sample(0)
        reg.sample(100)
        path = tmp_path / "metrics.jsonl"
        assert reg.to_jsonl(path) == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        meta, rows = lines[0], lines[1:]
        assert meta["meta"] is True
        assert meta["schema"] == METRICS_SCHEMA_VERSION
        assert meta["interval"] == 100
        assert meta["metrics"] == ["m"]
        assert rows == [{"cycle": 0, "m": 7}, {"cycle": 100, "m": 7}]
