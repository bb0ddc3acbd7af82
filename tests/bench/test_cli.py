"""Tests for ``python -m repro.bench`` (report emission and --compare).

These drive :func:`repro.bench.__main__.main` directly, running only the
cheapest benchmark at quick size so the suite stays fast.
"""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import (
    compare_reports,
    comparison_lines,
    comparison_markdown,
    overhead_markdown,
)
from repro.bench.schema import validate_report
from repro.bench.smoke import events_by_layer
from repro.obs.profiler import DispatchOrder
from repro.sim.engine import Engine

REPO_ROOT = Path(__file__).resolve().parents[2]

FAST = ["--only", "engine_dispatch", "--quick", "--repeats", "1"]


def _run(tmp_path, extra=(), name="out.json"):
    out = tmp_path / name
    code = main([*FAST, "--out", str(out), *extra])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


class TestEmission:
    def test_writes_schema_valid_report(self, tmp_path):
        code, doc = _run(tmp_path)
        assert code == 0
        validate_report(doc)
        (row,) = doc["benchmarks"]
        assert row["name"] == "engine_dispatch"
        assert row["work_units"] > 0
        assert row["units_per_second"] > 0

    def test_update_baseline_promotes_the_run(self, tmp_path):
        code, first = _run(tmp_path)
        assert code == 0
        # lower the baseline's rate (as TestCompare._baseline does) so the
        # second 1-repeat run passes the gate whatever the host speed
        (row,) = first["benchmarks"]
        row["units_per_second"] = 1.0
        row["wall_seconds"] = float(row["work_units"])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(first))
        code, second = _run(
            tmp_path,
            extra=["--compare", str(baseline), "--update-baseline"],
            name="second.json",
        )
        assert code == 0
        promoted = json.loads(baseline.read_text())
        # the baseline now holds this run, minus the (stale the moment it
        # is promoted) comparison block
        expected = {k: v for k, v in second.items() if k != "comparison"}
        assert promoted == expected

    def test_update_baseline_preserves_pinned_thresholds(self, tmp_path):
        code, first = _run(tmp_path)
        assert code == 0
        (row,) = first["benchmarks"]
        row["fail_threshold"] = 2.5  # hand-pinned in the committed baseline
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(first))
        code, _ = _run(
            tmp_path,
            extra=["--compare", str(baseline), "--update-baseline"],
            name="second.json",
        )
        assert code == 0
        promoted = json.loads(baseline.read_text())
        (promoted_row,) = promoted["benchmarks"]
        assert promoted_row["fail_threshold"] == 2.5


class TestCompare:
    def _baseline(self, tmp_path, rate):
        doc = {
            "schema": 1,
            "python": "3.11.0",
            "platform": "test",
            "quick": True,
            "benchmarks": [
                {
                    "name": "engine_dispatch",
                    "kind": "micro",
                    "work_units": 1000,
                    "wall_seconds": 1000 / rate,
                    "units_per_second": rate,
                    "peak_rss_kb": 1,
                }
            ],
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        return path

    def test_comparable_baseline_passes(self, tmp_path):
        baseline = self._baseline(tmp_path, rate=1.0)  # anything beats 1/s
        code, doc = _run(tmp_path, extra=["--compare", str(baseline)])
        assert code == 0
        assert doc["comparison"]["regressions"] == []
        (row,) = doc["comparison"]["benchmarks"]
        assert row["speedup"] > 1.0

    def test_regression_past_threshold_fails(self, tmp_path):
        baseline = self._baseline(tmp_path, rate=1e12)  # unbeatable
        code, doc = _run(tmp_path, extra=["--compare", str(baseline)])
        assert code == 1
        assert doc["comparison"]["regressions"] == ["engine_dispatch"]

    def test_missing_baseline_is_an_error(self, tmp_path):
        code, _ = _run(tmp_path, extra=["--compare", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_baseline_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _ = _run(tmp_path, extra=["--compare", str(bad)])
        assert code == 2

    def test_schema_violating_baseline_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "benchmarks": []}))
        code, _ = _run(tmp_path, extra=["--compare", str(bad)])
        assert code == 2


def _doc(rows):
    return {
        "schema": 1,
        "python": "3.11.0",
        "platform": "test",
        "quick": False,
        "benchmarks": rows,
    }


def _sharded_row(
    rate,
    wall,
    cpus=1,
    pickle_per_window=50_000.0,
    trips=272,
):
    return {
        "name": "sharded_speedup",
        "kind": "e2e",
        "work_units": 10_000,
        "wall_seconds": 10_000 / rate,
        "units_per_second": rate,
        "peak_rss_kb": 1,
        "sharded_wall_seconds": wall,
        "cpus": cpus,
        "fail_threshold": 2.5,
        "pickle_bytes_per_window": pickle_per_window,
        "verb_round_trips": trips,
        "idle_wait_seconds": 1.0,
    }


class TestShardedGates:
    """Satellite gates: single-CPU wall comparison, pickle-bytes ratio."""

    def test_single_cpu_gates_on_sharded_wall_not_rate(self):
        # rate collapsed 10x (would regress past 2.5x) but the sharded
        # wall itself improved: on a 1-CPU host the wall gate wins
        base = _doc([_sharded_row(rate=3000.0, wall=3.2)])
        cur = _doc([_sharded_row(rate=300.0, wall=2.4)])
        comparison = compare_reports(cur, base)
        assert comparison["regressions"] == []
        (row,) = comparison["benchmarks"]
        assert row["gated_on"] == "sharded_wall_seconds"
        assert row["speedup"] > 1.3

    def test_single_cpu_wall_regression_still_fails(self):
        base = _doc([_sharded_row(rate=3000.0, wall=3.0)])
        cur = _doc([_sharded_row(rate=3000.0, wall=9.0)])
        comparison = compare_reports(cur, base)
        assert comparison["regressions"] == ["sharded_speedup"]

    def test_multi_cpu_keeps_the_rate_gate(self):
        base = _doc([_sharded_row(rate=3000.0, wall=3.0, cpus=8)])
        cur = _doc([_sharded_row(rate=2900.0, wall=2.9, cpus=8)])
        comparison = compare_reports(cur, base)
        (row,) = comparison["benchmarks"]
        assert "gated_on" not in row
        assert comparison["regressions"] == []

    def test_pickle_bytes_doubling_regresses(self):
        base = _doc([_sharded_row(rate=3000.0, wall=3.0)])
        cur = _doc(
            [_sharded_row(rate=3000.0, wall=3.0, pickle_per_window=150_000.0)]
        )
        comparison = compare_reports(cur, base)
        assert comparison["regressions"] == ["sharded_speedup (pickle bytes)"]
        (row,) = comparison["benchmarks"]
        assert row["pickle_bytes_ratio"] == 3.0
        # the markdown row is flagged even though only the pickle gate fired
        markdown = "\n".join(comparison_markdown(comparison))
        assert "regressed" in markdown

    def test_overhead_table_renders_counters(self):
        base = _doc([_sharded_row(rate=3000.0, wall=3.0)])
        cur = _doc([_sharded_row(rate=3000.0, wall=3.0)])
        comparison = compare_reports(cur, base)
        lines = overhead_markdown(comparison["benchmarks"])
        joined = "\n".join(lines)
        assert "Coordination overhead" in joined
        assert "272" in joined and "50,000" in joined

    def test_overhead_table_empty_without_counters(self):
        assert overhead_markdown([{"name": "engine_dispatch"}]) == []


def _smoke_row(events, points=8):
    return {
        "name": "smoke_sweep",
        "kind": "e2e",
        "work_units": 31_554,
        "wall_seconds": 1.0,
        "units_per_second": 31_554.0,
        "peak_rss_kb": 1,
        "points": points,
        "events": events,
        "results_digest": "d",
    }


class TestEventCountGate:
    """The engine's event count is deterministic: any change is gated."""

    @pytest.mark.parametrize("events", [358_819, 358_821])
    def test_changed_count_on_the_same_grid_fails(self, events):
        comparison = compare_reports(
            _doc([_smoke_row(events)]), _doc([_smoke_row(358_820)])
        )
        assert comparison["regressions"] == ["smoke_sweep (events)"]
        text = "\n".join(comparison_lines(comparison))
        assert f"events 358820 -> {events} (CHANGED)" in text
        assert "regressed" in "\n".join(comparison_markdown(comparison))

    def test_equal_count_passes_and_is_printed(self):
        comparison = compare_reports(
            _doc([_smoke_row(358_820)]), _doc([_smoke_row(358_820)])
        )
        assert comparison["regressions"] == []
        assert "events 358820 -> 358820" in "\n".join(comparison_lines(comparison))

    def test_other_grid_is_not_compared(self):
        comparison = compare_reports(
            _doc([_smoke_row(1_000, points=4)]), _doc([_smoke_row(358_820)])
        )
        assert comparison["regressions"] == []
        (row,) = comparison["benchmarks"]
        assert "current_events" not in row


#: a slice of the smoke grid's per-callback event counts
_CALLS = {
    "ClusterSwitch._route": 41_442,
    "Gpu.receive_packet": 24_834,
    "PacketLink._drain": 70_618,
}


def _calls_row(calls, points=8):
    return dict(_smoke_row(sum(calls.values()), points), events_by_callback=calls)


class TestCallbackCountGate:
    """Events per callback key are deterministic: any moved key fails."""

    def test_one_key_moving_by_one_fails_and_is_named(self):
        moved = dict(_CALLS, **{"ClusterSwitch._route": 41_443})
        comparison = compare_reports(
            _doc([_calls_row(moved)]), _doc([_calls_row(_CALLS)])
        )
        assert "smoke_sweep (events by callback: ClusterSwitch._route)" in (
            comparison["regressions"]
        )
        (row,) = comparison["benchmarks"]
        assert row["callback_deltas"] == [
            {"callback": "ClusterSwitch._route", "baseline": 41_442, "current": 41_443}
        ]
        text = "\n".join(comparison_lines(comparison))
        assert "ClusterSwitch._route" in text and "+1" in text
        # only the key that moved is listed
        assert "PacketLink._drain" not in text
        markdown = "\n".join(comparison_markdown(comparison))
        assert "regressed" in markdown and "ClusterSwitch._route" in markdown

    def test_a_renamed_key_names_both_sides(self):
        renamed = dict(_CALLS)
        renamed["RdmaEngine.receive_packet"] = renamed.pop("Gpu.receive_packet")
        comparison = compare_reports(
            _doc([_calls_row(renamed)]), _doc([_calls_row(_CALLS)])
        )
        (row,) = comparison["benchmarks"]
        assert [d["callback"] for d in row["callback_deltas"]] == [
            "Gpu.receive_packet",
            "RdmaEngine.receive_packet",
        ]
        # the total is unchanged, so only the per-callback gate fires
        assert comparison["regressions"] == [
            "smoke_sweep (events by callback: "
            "Gpu.receive_packet, RdmaEngine.receive_packet)"
        ]

    def test_equal_counts_pass(self):
        comparison = compare_reports(
            _doc([_calls_row(_CALLS)]), _doc([_calls_row(dict(_CALLS))])
        )
        assert comparison["regressions"] == []
        (row,) = comparison["benchmarks"]
        assert row["callback_deltas"] == []

    def test_other_grid_is_not_compared(self):
        moved = dict(_CALLS, **{"PacketLink._drain": 1})
        comparison = compare_reports(
            _doc([_calls_row(moved, points=4)]), _doc([_calls_row(_CALLS)])
        )
        assert comparison["regressions"] == []
        (row,) = comparison["benchmarks"]
        assert "callback_deltas" not in row

    def test_schema_rejects_non_integer_counts(self):
        row = _calls_row({"PacketLink._drain": 1.5})
        row["results_digest"] = "0" * 64
        doc = _doc([row])
        with pytest.raises(ValueError, match="events_by_callback"):
            validate_report(doc)


def _layers_row(calls, points=8):
    return dict(_calls_row(calls, points), events_by_layer=events_by_layer(calls))


class TestLayerCountGate:
    """Events per simulator layer: every layer is tabled before and after."""

    def test_counts_fold_through_the_layer_map(self):
        assert events_by_layer(_CALLS) == {
            "network": 41_442 + 70_618,
            "core": 0,
            "gpu": 24_834,
            "memory": 0,
            "vm": 0,
            "faults": 0,
        }
        with pytest.raises(KeyError, match="LAYER_OF_CLASS"):
            events_by_layer({"Unplaced._tick": 1})

    def test_a_callback_moving_layers_fails_and_is_tabled(self):
        moved = dict(_CALLS)
        moved["RdmaEngine.receive_packet"] = moved.pop("Gpu.receive_packet")
        comparison = compare_reports(
            _doc([_layers_row(moved)]), _doc([_layers_row(_CALLS)])
        )
        # the per-callback gate fails it; the layer table shows where
        assert comparison["regressions"] == [
            "smoke_sweep (events by callback: "
            "Gpu.receive_packet, RdmaEngine.receive_packet)"
        ]
        (row,) = comparison["benchmarks"]
        assert [entry["layer"] for entry in row["layer_counts"]] == [
            "network", "core", "gpu", "memory", "vm", "faults"
        ]
        text = "\n".join(comparison_lines(comparison))
        assert "-24834" in text and "+24834" in text

    def test_equal_counts_pass_and_print_every_layer(self):
        comparison = compare_reports(
            _doc([_layers_row(_CALLS)]), _doc([_layers_row(dict(_CALLS))])
        )
        assert comparison["regressions"] == []
        text = "\n".join(comparison_lines(comparison))
        for layer in ("network", "core", "gpu", "memory", "vm", "faults"):
            assert layer in text

    @pytest.mark.parametrize(
        "layers, match",
        [
            ({"nic": 1}, "simulator layers"),
            ({"network": 1.5}, "simulator layers"),
            ({"network": 1}, "sums to 1"),
        ],
    )
    def test_schema_rejects_bad_layer_counts(self, layers, match):
        row = dict(_calls_row(_CALLS), events_by_layer=layers)
        row["results_digest"] = "0" * 64
        with pytest.raises(ValueError, match=match):
            validate_report(_doc([row]))

    def test_committed_baseline_layers_match_its_callbacks(self):
        doc = json.loads((REPO_ROOT / "BENCH_baseline.json").read_text())
        (row,) = [row for row in doc["benchmarks"] if row["name"] == "smoke_sweep"]
        assert row["events_by_layer"] == events_by_layer(row["events_by_callback"])
        assert sum(row["events_by_layer"].values()) == row["events"]


def _read():
    pass


def _write():
    pass


def _dispatch_order(callbacks):
    """The recorder's digest and counts for same-cycle events in order."""
    engine = Engine()
    for callback in callbacks:
        engine.schedule(4, callback)
    order = DispatchOrder()
    order.attach(engine)
    engine.run()
    return order.hexdigest(), dict(order.counts)


def _order_row(order):
    return dict(_calls_row(_CALLS), dispatch_order=order)


class TestDispatchOrderGate:
    """Equal counts in another order fail the dispatch-order gate."""

    def test_a_swapped_pair_of_same_cycle_events_fails_and_is_named(self):
        before, before_counts = _dispatch_order((_read, _write))
        after, after_counts = _dispatch_order((_write, _read))
        assert before_counts == after_counts == {"_read": 1, "_write": 1}
        assert before != after
        comparison = compare_reports(
            _doc([_order_row(after)]), _doc([_order_row(before)])
        )
        assert comparison["regressions"] == ["smoke_sweep (dispatch order)"]
        (row,) = comparison["benchmarks"]
        assert row["callback_deltas"] == []
        assert row["dispatch_order_match"] is False
        assert "dispatch order CHANGED" in "\n".join(comparison_lines(comparison))
        assert "regressed" in "\n".join(comparison_markdown(comparison))

    def test_equal_order_passes(self):
        digest, _ = _dispatch_order((_read, _write))
        comparison = compare_reports(
            _doc([_order_row(digest)]),
            _doc([_order_row(_dispatch_order((_read, _write))[0])]),
        )
        assert comparison["regressions"] == []
        (row,) = comparison["benchmarks"]
        assert row["dispatch_order_match"] is True

    def test_schema_rejects_a_malformed_order(self):
        row = _order_row("not-a-digest")
        row["results_digest"] = "0" * 64
        with pytest.raises(ValueError, match="dispatch_order"):
            validate_report(_doc([row]))


class TestBaselinePromotion:
    """--update-baseline must not lose rows or per-row keys."""

    def test_only_subset_keeps_unrun_benchmark_rows(self, tmp_path):
        code, first = _run(tmp_path)
        assert code == 0
        extra_row = _sharded_row(rate=3000.0, wall=3.0)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_doc(first["benchmarks"] + [extra_row]))
        )
        code, _ = _run(
            tmp_path,
            extra=["--compare", str(baseline), "--update-baseline"],
            name="second.json",
        )
        assert code == 0
        promoted = json.loads(baseline.read_text())
        validate_report(promoted)
        by_name = {row["name"]: row for row in promoted["benchmarks"]}
        # the benchmark this invocation did not run survives intact,
        # overhead fields and all
        assert by_name["sharded_speedup"] == extra_row

    def test_round_trip_loses_no_keys(self, tmp_path):
        code, first = _run(tmp_path)
        assert code == 0
        (row,) = first["benchmarks"]
        # simulate a baseline recorded by a fuller run: pinned threshold
        # plus overhead counters the quick re-run does not emit
        row["fail_threshold"] = 2.5
        row["verb_round_trips"] = 99
        row["pickle_bytes_per_window"] = 123.4
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(first))
        code, second = _run(
            tmp_path,
            extra=["--compare", str(baseline), "--update-baseline"],
            name="second.json",
        )
        assert code == 0
        promoted = json.loads(baseline.read_text())
        (promoted_row,) = promoted["benchmarks"]
        before = set(row)
        after = set(promoted_row)
        assert before <= after, f"lost keys: {before - after}"
        assert promoted_row["fail_threshold"] == 2.5
        assert promoted_row["verb_round_trips"] == 99
        # fresh measurements win over stale ones
        assert (
            promoted_row["units_per_second"]
            == {r["name"]: r for r in second["benchmarks"]}["engine_dispatch"][
                "units_per_second"
            ]
        )
