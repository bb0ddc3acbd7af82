"""Tests for run results and report helpers."""

import json
from collections import Counter

import pytest

from repro.experiments.runner import ExperimentPoint, RunContext, execute_point
from repro.stats.collectors import LatencyStat, RunStats
from repro.stats.energy import EnergyBreakdown
from repro.stats.report import RunResult, geometric_mean
from repro.workloads.base import Scale


def _result(cycles=1000, **kwargs):
    return RunResult(
        workload="w", config_label="c", cycles=cycles, stats=RunStats(), **kwargs
    )


def _populated_result():
    stats = RunStats()
    stats.mem_ops = 4200
    stats.l1_hits = 900
    stats.l1_misses = 100
    stats.remote_reads_inter = 77
    stats.read_req_bytes_hist[16] = 5
    stats.read_req_bytes_hist[64] = 2
    stats.remote_read_latency_inter.record(120)
    stats.remote_read_latency_inter.record(340)
    stats.ptw_latency.record(55)
    stats.finish_cycle = 987
    return RunResult(
        workload="gups",
        config_label="full",
        cycles=987,
        stats=stats,
        inter_flits_sent=500,
        inter_wire_bytes=8000,
        inter_useful_bytes=6100,
        inter_busy_cycles=410.5,
        flits_entered=520,
        flits_absorbed=60,
        parents_stitched=55,
        packets_trimmed=12,
        trim_bytes_saved=576,
        ptw_flits=30,
        data_flits=490,
        ptw_bytes=360,
        data_bytes=6800,
        occupancy=Counter({16: 400, 12: 80, 4: 40}),
        intra_busy_cycles=99.25,
        intra_links=8,
        inter_links=2,
        energy=EnergyBreakdown(
            components={"inter_links": 80000.0, "dram": 420000.0}
        ),
    )


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRunResult:
    def test_speedup(self):
        base = _result(cycles=2000)
        fast = _result(cycles=1000)
        assert fast.speedup_over(base) == pytest.approx(2.0)

    def test_speedup_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            _result(cycles=0).speedup_over(_result())

    def test_inter_utilization(self):
        r = _result(cycles=100, inter_busy_cycles=120.0, inter_links=2)
        assert r.inter_utilization() == pytest.approx(0.6)

    def test_utilization_clamped(self):
        r = _result(cycles=10, inter_busy_cycles=1000.0, inter_links=1)
        assert r.inter_utilization() == 1.0

    def test_utilization_no_links(self):
        assert _result().inter_utilization() == 0.0

    def test_stitch_rate(self):
        r = _result(flits_entered=100, flits_absorbed=15)
        assert r.stitch_rate() == pytest.approx(0.15)
        assert _result().stitch_rate() == 0.0

    def test_ptw_fraction(self):
        r = _result(ptw_bytes=13, data_bytes=87)
        assert r.ptw_traffic_fraction() == pytest.approx(0.13)
        assert _result().ptw_traffic_fraction() == 0.0

    def test_padded_distribution_normalized(self):
        r = _result()
        r.occupancy[16] = 4  # full flits
        r.occupancy[12] = 1  # 25% padded
        r.occupancy[4] = 1  # 75% padded
        dist = r.padded_fraction_distribution(16)
        assert dist[0.0] == pytest.approx(4 / 6)
        assert dist[0.25] == pytest.approx(1 / 6)
        assert dist[0.75] == pytest.approx(1 / 6)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_padded_distribution_empty(self):
        assert _result().padded_fraction_distribution(16) == {}


class TestSerialization:
    def test_round_trip_through_json(self):
        original = _populated_result()
        wire = json.dumps(original.to_dict())
        restored = RunResult.from_dict(json.loads(wire))
        assert restored.to_dict() == original.to_dict()

    def test_round_trip_preserves_derived_metrics(self):
        original = _populated_result()
        restored = RunResult.from_dict(json.loads(json.dumps(original.to_dict())))
        assert restored.stitch_rate() == pytest.approx(original.stitch_rate())
        assert restored.inter_utilization() == pytest.approx(
            original.inter_utilization()
        )
        assert restored.mean_inter_read_latency() == pytest.approx(
            original.mean_inter_read_latency()
        )
        # the histogram is the whole latency record, so percentiles
        # come back exactly
        for p in (50, 99):
            assert restored.stats.remote_read_latency_inter.percentile(
                p
            ) == original.stats.remote_read_latency_inter.percentile(p)
        assert restored.stats.l1_mpki() == pytest.approx(original.stats.l1_mpki())
        assert restored.occupancy == original.occupancy
        assert isinstance(next(iter(restored.occupancy)), int)
        assert restored.energy.total_pj == pytest.approx(original.energy.total_pj)

    def test_cached_result_reports_fresh_percentiles(self):
        """Regression: fresh results answered percentiles from raw
        samples and cached ones from the histogram, so a gups point's
        ``ptw_latency`` p90 read 1,123 fresh and 1,024 from the cache."""
        fresh, _ = execute_point(
            ExperimentPoint(workload="gups", scale=Scale.tiny()), RunContext()
        )
        cached = RunResult.from_dict(json.loads(json.dumps(fresh.to_dict())))
        stats = [
            (key, value, getattr(cached.stats, key))
            for key, value in vars(fresh.stats).items()
            if isinstance(value, LatencyStat)
        ]
        assert len(stats) == 3
        for key, before, after in stats:
            assert before.count > 0, key
            for p in (50, 90, 99):
                assert before.percentile(p) == after.percentile(p), (key, p)

    def test_round_trip_without_energy(self):
        original = _result()
        restored = RunResult.from_dict(json.loads(json.dumps(original.to_dict())))
        assert restored.energy is None
        assert restored.to_dict() == original.to_dict()

    def test_unknown_schema_rejected(self):
        data = _result().to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError):
            RunResult.from_dict(data)

    def test_missing_schema_rejected(self):
        data = _result().to_dict()
        del data["schema"]
        with pytest.raises(ValueError):
            RunResult.from_dict(data)
