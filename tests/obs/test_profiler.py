"""Tests for the engine callback profiler."""

import json

import pytest

from repro.obs.profiler import EngineProfiler, callback_key
from repro.sim.engine import Engine


class _Widget:
    def __init__(self):
        self.calls = []

    def tick(self, value=None):
        self.calls.append(value)

    def boom(self):
        raise RuntimeError("boom")


def _free_function():
    pass


class TestCallbackKey:
    def test_bound_method(self):
        assert callback_key(_Widget().tick) == "_Widget.tick"

    def test_free_function(self):
        assert callback_key(_free_function).endswith("_free_function")

    def test_lambda(self):
        assert "<lambda>" in callback_key(lambda: None)


class TestDispatch:
    def test_counts_and_time_accumulate(self):
        profiler = EngineProfiler()
        widget = _Widget()
        profiler.dispatch(widget.tick, (1,))
        profiler.dispatch(widget.tick, (2,))
        assert widget.calls == [1, 2]
        assert profiler.events == 2
        count, seconds = profiler.by_key["_Widget.tick"]
        assert count == 2
        assert seconds >= 0.0
        assert profiler.wall_seconds >= seconds

    def test_exception_still_attributed(self):
        profiler = EngineProfiler()
        widget = _Widget()
        with pytest.raises(RuntimeError):
            profiler.dispatch(widget.boom, ())
        assert profiler.by_key["_Widget.boom"][0] == 1
        assert profiler.events == 1

    def test_hotspots_sorted_by_time(self):
        profiler = EngineProfiler()
        profiler.by_key = {"fast": [10, 0.1], "slow": [1, 5.0]}
        assert [row[0] for row in profiler.hotspots()] == ["slow", "fast"]


class TestEngineIntegration:
    def test_engine_attributes_events(self):
        engine = Engine()
        engine.profiler = EngineProfiler()
        widget = _Widget()
        engine.schedule(0, widget.tick, "a")
        engine.schedule(5, widget.tick, "b")
        engine.run()
        assert widget.calls == ["a", "b"]
        assert engine.profiler.by_key["_Widget.tick"][0] == 2

    def test_detached_engine_unaffected(self):
        engine = Engine()
        assert engine.profiler is None
        widget = _Widget()
        engine.schedule(0, widget.tick, "a")
        engine.run()
        assert widget.calls == ["a"]


class TestReporting:
    def test_json_round_trip(self, tmp_path):
        profiler = EngineProfiler()
        profiler.dispatch(_Widget().tick, ())
        path = tmp_path / "profile.json"
        profiler.to_json(path)
        data = json.loads(path.read_text())
        assert data["events"] == 1
        assert data["by_callback"][0]["callback"] == "_Widget.tick"
