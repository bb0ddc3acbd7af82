"""Tests for flit- and packet-granularity links."""

import math
from fractions import Fraction

import pytest

from repro.network.flit import segment_packet
from repro.network.link import (
    FlitLink,
    LinkStats,
    PacketLink,
    UtilizationOvercountError,
)
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine

from tests.network.per_flit import staged


def _flit(ptype=PacketType.READ_REQ):
    """A staged single-flit packet: the flit completes it on the wire."""
    (flit,) = staged(segment_packet(Packet(ptype=ptype, src_gpu=0, dst_gpu=2), 16))
    return flit


def _rsp_flits():
    return staged(
        segment_packet(Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=2), 16)
    )


class TestFlitLink:
    def test_delivery_after_serialization_and_latency(self):
        eng = Engine()
        arrivals = []
        link = FlitLink(eng, "l", 16.0, latency=8, sink=lambda f, done: arrivals.append(eng.now))
        link.send(_flit())
        eng.run()
        assert arrivals == [1 + 8]

    def test_one_flit_per_cycle_at_flit_bandwidth(self):
        eng = Engine()
        arrivals = []
        link = FlitLink(eng, "l", 16.0, latency=0, sink=lambda f, done: arrivals.append(eng.now))

        def pump(n):
            if n == 0:
                return
            if link.is_ready():
                link.send(_flit())
                n -= 1
            eng.schedule_at(link.ready_at(), pump, n)

        eng.schedule(0, pump, 4)
        eng.run()
        assert arrivals == [1, 2, 3, 4]

    def test_fast_link_takes_multiple_flits_per_cycle(self):
        eng = Engine()
        arrivals = []
        link = FlitLink(eng, "l", 128.0, latency=0, sink=lambda f, done: arrivals.append(eng.now))
        sent = 0
        while link.is_ready() and sent < 8:
            link.send(_flit())
            sent += 1
        assert sent == 8  # eight 16 B flits fit in one 128 B cycle
        assert not link.is_ready()
        assert link.ready_at() == 1

    def test_send_before_ready_raises(self):
        eng = Engine()
        link = FlitLink(eng, "l", 16.0, latency=0, sink=lambda f, done: None)
        link.send(_flit())
        with pytest.raises(RuntimeError):
            link.send(_flit())

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            FlitLink(Engine(), "l", 0.0, latency=0, sink=lambda f, done: None)

    def test_stats_accumulate(self):
        eng = Engine()
        link = FlitLink(eng, "l", 16.0, latency=0, sink=lambda f, done: None)
        link.send(_flit())  # read req: 12 useful of 16
        eng.run()
        assert link.stats.flits == 1
        assert link.stats.wire_bytes == 16
        assert link.stats.useful_bytes == 12
        assert link.stats.busy_cycles == pytest.approx(1.0)

    def test_utilization(self):
        eng = Engine()
        link = FlitLink(eng, "l", 16.0, latency=0, sink=lambda f, done: None)
        link.send(_flit())
        eng.run()
        assert link.stats.utilization(10) == pytest.approx(0.1)
        assert link.stats.utilization(0) == 0.0

    def test_stitched_flit_useful_bytes_exclude_partial_metadata(self):
        eng = Engine()
        link = FlitLink(eng, "l", 16.0, latency=0, sink=lambda f, done: None)
        parent = _rsp_flits()[-1]  # tail: 4 used, 12 empty
        candidate = _rsp_flits()[-1]  # partial-payload: 4 used + 3 B metadata
        parent.absorb(candidate)
        link.send(parent)
        eng.run()
        assert link.stats.wire_bytes == 16
        # only real payload counts: 4 (parent) + 4 (absorbed), not the
        # 3-byte ID/Size prefix the partial segment spends on the wire
        assert link.stats.useful_bytes == 8

    def test_whole_packet_segment_counts_fully_useful(self):
        eng = Engine()
        link = FlitLink(eng, "l", 16.0, latency=0, sink=lambda f, done: None)
        parent = _rsp_flits()[-1]  # 4 used, 12 empty
        candidate = _flit(PacketType.READ_REQ)  # whole packet, 12 used
        parent.absorb(candidate)
        link.send(parent)
        eng.run()
        # a whole-packet segment has no metadata prefix: 4 + 12 all useful
        assert link.stats.useful_bytes == 16


class TestUtilizationOvercount:
    # busy time is fabricated through ``busy_bytes``: at the default
    # 1 B/cycle, N busy bytes are N busy cycles

    def test_overcount_recorded_not_hidden(self):
        """Regression: busy > elapsed used to clamp to 1.0 silently,
        hiding upstream double-count bugs behind a plausible plot."""
        stats = LinkStats()
        stats.busy_bytes = 150
        assert stats.utilization(100) == 1.0
        assert stats.overcount_cycles == pytest.approx(50.0)

    def test_strict_mode_raises(self):
        stats = LinkStats()
        stats.strict = True
        stats.busy_bytes = 150
        with pytest.raises(UtilizationOvercountError):
            stats.utilization(100)

    def test_float_headroom_tolerated(self):
        # a rate just under 1 B/cycle makes 100 bytes 100 + 4e-8 busy
        # cycles: sub-tolerance float drift is not an overcount
        stats = LinkStats(bytes_per_cycle=1 - 4e-10)
        stats.strict = True
        stats.busy_bytes = 100
        assert 100.0 < stats.busy_cycles
        assert stats.busy_cycles - 100.0 < 100 * LinkStats.OVERCOUNT_TOLERANCE
        assert stats.utilization(100) == 1.0
        assert stats.overcount_cycles == 0.0

    def test_worst_excess_retained(self):
        stats = LinkStats()
        stats.busy_bytes = 150
        stats.utilization(100)
        stats.utilization(120)  # smaller excess must not shrink the record
        assert stats.overcount_cycles == pytest.approx(50.0)

    def test_healthy_utilization_unchanged(self):
        stats = LinkStats()
        stats.strict = True
        stats.busy_bytes = 73
        assert stats.utilization(100) == pytest.approx(0.73)
        assert stats.overcount_cycles == 0.0


class TestIntegerAccounting:
    """Regression tests for float-drift in link timekeeping.

    Both link classes used to advance a float ``_next_free`` by repeated
    ``size / bytes_per_cycle`` additions and to accumulate ``busy_cycles``
    the same way, which drifts on non-power-of-two bandwidths.  Busy time
    is now an exact byte count divided once at query time, and readiness
    arithmetic is integer throughout.
    """

    def _saturate(self, eng, link, n_flits):
        def pump(remaining):
            if remaining == 0:
                return
            if link.is_ready():
                link.send(_flit())
                remaining -= 1
            eng.schedule_at(link.ready_at(), pump, remaining)

        eng.schedule(0, pump, n_flits)
        eng.run()

    def test_busy_time_is_one_division_over_exact_bytes(self):
        eng = Engine()
        link = FlitLink(eng, "l", 1.1, latency=0, sink=lambda f, done: None)
        link.stats.strict = True
        self._saturate(eng, link, 1000)
        assert link.stats.busy_bytes == 1000 * 16
        num, den = (1.1).as_integer_ratio()
        # exactly the single division the stats perform — no accumulation
        assert link.stats.busy_cycles == (1000 * 16 * den) / num

    @pytest.mark.parametrize("bpc", [0.3, 1.1, 12.8, 100 / 3])
    def test_no_overcount_at_fractional_bandwidth(self, bpc):
        eng = Engine()
        link = FlitLink(eng, "l", bpc, latency=0, sink=lambda f, done: None)
        link.stats.strict = True
        self._saturate(eng, link, 500)
        assert link.stats.utilization(eng.now) <= 1.0  # strict: no raise
        assert link.stats.overcount_cycles == 0.0

    def test_timestamps_stay_integers(self):
        eng = Engine()
        arrivals = []
        link = FlitLink(
            eng, "l", 0.3, latency=3, sink=lambda f, done: arrivals.append(eng.now)
        )
        self._saturate(eng, link, 20)
        assert arrivals == sorted(arrivals)
        assert all(type(t) is int for t in arrivals)
        assert type(link.ready_at()) is int

    def test_packet_link_arrivals_follow_exact_ceilings(self):
        """Back-to-back 80 B packets at 12.8 B/cycle land on the exact
        rational serialization boundaries, not float approximations."""
        eng = Engine()
        arrivals = []
        link = PacketLink(
            eng, "l", 12.8, latency=0, flit_size=16,
            sink=lambda p: arrivals.append(eng.now),
        )
        for _ in range(4):
            link.send(Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1))
        eng.run()
        bpc = Fraction(12.8)  # the exact value of the float, as a rational
        expected = [math.ceil(Fraction(k * 80) / bpc) for k in range(1, 5)]
        assert arrivals == expected

    def test_packet_link_busy_bytes_exact(self):
        eng = Engine()
        link = PacketLink(
            eng, "l", 12.8, latency=0, flit_size=16, sink=lambda p: None
        )
        link.stats.strict = True
        for _ in range(50):
            link.send(Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1))
        eng.run()
        assert link.stats.busy_bytes == 50 * 80
        assert link.stats.utilization(eng.now) <= 1.0
        assert link.stats.overcount_cycles == 0.0


class TestPacketLink:
    def test_whole_packet_delivered_once(self):
        eng = Engine()
        arrivals = []
        link = PacketLink(
            eng, "l", 16.0, latency=8, flit_size=16,
            sink=lambda p: arrivals.append((eng.now, p)),
        )
        pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1)
        assert link.send(pkt)
        eng.run()
        # 5 flits at 1 flit/cycle = 5 cycles serialization + 8 latency
        assert arrivals[0][0] == 5 + 8
        assert arrivals[0][1] is pkt

    def test_serialization_respects_bandwidth(self):
        eng = Engine()
        arrivals = []
        link = PacketLink(
            eng, "l", 128.0, latency=0, flit_size=16,
            sink=lambda p: arrivals.append(eng.now),
        )
        for _ in range(3):
            link.send(Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1))
        eng.run()
        # each 80 B packet takes 80/128 cycles; three finish within 2 cycles
        assert arrivals == [1, 2, 2]

    def test_fifo_order(self):
        eng = Engine()
        arrivals = []
        link = PacketLink(
            eng, "l", 16.0, latency=0, flit_size=16,
            sink=lambda p: arrivals.append(p.pid),
        )
        pkts = [Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1) for _ in range(4)]
        for p in pkts:
            link.send(p)
        eng.run()
        assert arrivals == [p.pid for p in pkts]

    def test_backpressure_when_buffer_full(self):
        eng = Engine()
        link = PacketLink(
            eng, "l", 16.0, latency=0, flit_size=16,
            sink=lambda p: None, buffer_entries=2,
        )
        ok = [link.send(Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1)) for _ in range(3)]
        assert ok == [True, True, False]

    def test_notify_on_space_after_drain(self):
        eng = Engine()
        link = PacketLink(
            eng, "l", 16.0, latency=0, flit_size=16,
            sink=lambda p: None, buffer_entries=1,
        )
        link.send(Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1))
        fired = []
        link.notify_on_space(lambda: fired.append(eng.now))
        eng.run()
        assert fired  # woke up once the queue drained

    def test_stats(self):
        eng = Engine()
        link = PacketLink(eng, "l", 16.0, latency=0, flit_size=16, sink=lambda p: None)
        link.send(Packet(ptype=PacketType.WRITE_REQ, src_gpu=0, dst_gpu=1))
        eng.run()
        assert link.stats.packets == 1
        assert link.stats.flits == 5
        assert link.stats.wire_bytes == 80
        assert link.stats.useful_bytes == 76
