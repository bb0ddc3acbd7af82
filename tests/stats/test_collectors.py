"""Tests for statistic collectors."""

import pytest

from repro.stats.collectors import LatencyStat, RunStats


class TestLatencyStat:
    def test_empty(self):
        stat = LatencyStat()
        assert stat.mean() == 0.0
        assert stat.count == 0

    def test_record(self):
        stat = LatencyStat()
        for latency in (10, 20, 30):
            stat.record(latency)
        assert stat.count == 3
        assert stat.mean() == pytest.approx(20.0)
        assert stat.max == 30

    def test_merge(self):
        a, b = LatencyStat(), LatencyStat()
        a.record(10)
        b.record(30)
        a.merge(b)
        assert a.count == 2
        assert a.mean() == pytest.approx(20.0)
        assert a.max == 30
        assert a.percentile(100) == 30.0

    def test_percentiles(self):
        stat = LatencyStat()
        for latency in range(1, 101):
            stat.record(latency)
        # answers are bucket floors: 48..55 share one bucket (width 8),
        # 88..95 and 96..103 likewise
        assert stat.percentile(0) == 1.0
        assert stat.percentile(50) == 48.0
        assert stat.percentile(95) == 88.0
        assert stat.percentile(100) == 96.0

    def test_percentile_empty_and_bounds(self):
        stat = LatencyStat()
        assert stat.percentile(95) == 0.0
        with pytest.raises(ValueError):
            stat.percentile(101)

    def test_merge_is_order_independent(self):
        def shard(values):
            stat = LatencyStat()
            for v in values:
                stat.record(v)
            return stat

        low = list(range(100))          # 0..99
        high = list(range(1000, 1100))  # 1000..1099
        ab = shard(low)
        ab.merge(shard(high))
        ba = shard(high)
        ba.merge(shard(low))
        for p in (0, 25, 50, 75, 90, 99, 100):
            assert ab.percentile(p) == ba.percentile(p)
        # both shards are represented in the merged distribution
        assert ab.percentile(25) < 100
        assert ab.percentile(75) >= 960  # bucket floor of 1000..1023

    def test_bucket_floor(self):
        # exact below 2**(HIST_SUB_BITS + 1)
        for v in range(0, 17):
            assert LatencyStat.bucket_floor(v) == v
        assert LatencyStat.bucket_floor(340) == 320  # width 32 at msb 8
        assert LatencyStat.bucket_floor(1023) == 960  # width 64 at msb 9
        assert LatencyStat.bucket_floor(1024) == 1024
        assert LatencyStat.bucket_floor(-5) == 0

    def test_histogram_percentile_error_bounded(self):
        stat = LatencyStat()
        values = range(1, 2001)
        for v in values:
            stat.record(v)
        for p in (10, 50, 90, 99):
            exact = float(values[LatencyStat._rank(p, len(values))])
            approx = stat.percentile(p)
            assert exact * (1 - 2**-LatencyStat.HIST_SUB_BITS) <= approx <= exact

    def test_serialized_payload_has_no_raw_samples(self):
        """Regression: to_dict used to embed up to 200k raw samples,
        bloating every disk-cache entry by megabytes."""
        stat = LatencyStat()
        for v in range(10_000):
            stat.record(v)
        payload = stat.to_dict()
        assert "samples" not in payload
        # log-bucketed: far fewer buckets than samples
        assert len(payload["hist"]) < 200
        restored = LatencyStat.from_dict(payload)
        assert restored.count == stat.count
        assert restored.mean() == pytest.approx(stat.mean())
        assert restored.max == stat.max

    def test_legacy_samples_payload_rejected(self):
        with pytest.raises(ValueError):
            LatencyStat.from_dict(
                {"count": 2, "total": 30, "max": 20, "samples": [10, 20]}
            )


class TestRunStats:
    def test_l1_mpki(self):
        stats = RunStats()
        stats.mem_ops = 2000
        stats.l1_misses = 30
        stats.l1_sector_misses = 10
        assert stats.l1_mpki() == pytest.approx(20.0)

    def test_l1_mpki_no_ops(self):
        assert RunStats().l1_mpki() == 0.0

    def test_l1_accesses_sum(self):
        stats = RunStats()
        stats.l1_hits, stats.l1_misses, stats.l1_sector_misses = 5, 3, 2
        assert stats.l1_accesses == 10

    def test_read_request_bucketing(self):
        stats = RunStats()
        for nbytes, bucket in [(1, 16), (8, 16), (16, 16), (17, 32), (33, 48), (64, 64), (0, 16)]:
            stats.record_read_request_bytes(nbytes)
            assert stats.read_req_bytes_hist[bucket] >= 1

    def test_fraction_requests_at_most(self):
        stats = RunStats()
        stats.record_read_request_bytes(8)
        stats.record_read_request_bytes(30)
        stats.record_read_request_bytes(64)
        # one read each at most 16, at most 32 and at most 64 bytes
        hist = stats.read_req_bytes_hist
        assert [hist[b] for b in (16, 32, 48, 64)] == [1, 1, 0, 1]

    def test_fraction_empty(self):
        assert sum(RunStats().read_req_bytes_hist.values()) == 0


class TestPercentileRanking:
    """Regression for the banker's-rounding percentile bug: ``round()``
    made p50 depend on sample-count parity.  Percentiles now use one
    floor-based nearest-rank rule."""

    @staticmethod
    def _stat(values):
        stat = LatencyStat()
        for v in values:
            stat.record(v)
        return stat

    def test_even_sample_count(self):
        stat = self._stat(range(1, 11))  # 1..10
        assert stat.percentile(0) == 1.0
        assert stat.percentile(50) == 5.0  # floor(0.5 * 9) = rank 4
        assert stat.percentile(99) == 9.0  # floor(0.99 * 9) = rank 8
        assert stat.percentile(100) == 10.0

    def test_odd_sample_count(self):
        stat = self._stat(range(1, 10))  # 1..9
        assert stat.percentile(50) == 5.0  # floor(0.5 * 8) = rank 4, exact median
        assert stat.percentile(25) == 3.0  # floor(0.25 * 8) = rank 2
        assert stat.percentile(100) == 9.0

    def test_integer_percentile_rank_is_float_exact(self):
        # p * (n - 1) multiplies before dividing, so e.g. 70% of 11
        # samples is exactly rank 7 (0.7 * 10 would be 6.999...)
        assert LatencyStat._rank(70, 11) == 7
        assert LatencyStat._rank(29, 101) == 29

    def test_two_samples_median_is_lower(self):
        # parity case round() got wrong: round(0.5) == 0 but round(1.5)
        # == 2, so medians jumped between lower and upper neighbours
        assert self._stat([10, 20]).percentile(50) == 10.0
        assert self._stat([10, 20, 30, 40]).percentile(50) == 20.0

    def test_serialized_copy_agrees_at_every_percentile(self):
        # values above 16 fall in coarse buckets; the copy must still
        # answer exactly what the stat it was serialized from answers
        values = [1, 2, 3, 5, 7, 11, 13, 15, 17, 100, 341, 1023, 5000] * 3
        stat = self._stat(values)
        restored = LatencyStat.from_dict(stat.to_dict())
        for p in range(101):
            assert stat.percentile(p) == restored.percentile(p), p
