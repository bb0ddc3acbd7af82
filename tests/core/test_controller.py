"""End-to-end tests of the NetCrafter egress controller.

The controller's link is the per-flit reference
(:class:`tests.network.per_flit.PerFlitLink`), so a test sees every wire
flit the controller sends, at its arrival cycle.
"""

import itertools

import pytest

from repro.core.config import NetCrafterConfig, PriorityMode
from repro.core.controller import NetCrafterController, PassthroughController
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine

from tests.network.per_flit import PerFlitLink, ReassemblyBuffer


def _wire(eng, bandwidth, latency, receive):
    """A link into ``receive(flit)``, called per arriving wire flit."""
    return PerFlitLink(
        eng, "link", bandwidth, latency, lambda flit, _corrupt: receive(flit)
    )


def _setup(config, bandwidth=16.0, latency=0, capacity=None):
    eng = Engine()
    flits = []
    link = _wire(eng, bandwidth, latency, flits.append)
    ctrl = NetCrafterController(
        eng, "ctrl", link, 16, config, queue_capacity=capacity
    )
    return eng, ctrl, link, flits


#: distinct packet numbers, as the sending RDMA engines stamp them
_pids = itertools.count(1)


def _pkt(ptype=PacketType.READ_RSP, **kwargs):
    return Packet(ptype=ptype, src_gpu=0, dst_gpu=2, pid=next(_pids), **kwargs)


class TestBaselineEgress:
    def test_passthrough_sends_all_flits_fifo(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        pkts = [_pkt(PacketType.READ_REQ) for _ in range(3)]
        for p in pkts:
            ctrl.accept_packet(p)
        eng.run()
        assert [f.packet.pid for f in flits] == [p.pid for p in pkts]
        assert ctrl.stats.flits_sent == 3

    def test_passthrough_controller_class(self):
        eng = Engine()
        flits = []
        link = _wire(eng, 16.0, 0, flits.append)
        ctrl = PassthroughController(eng, "c", link, 16)
        ctrl.accept_packet(_pkt())
        eng.run()
        assert len(flits) == 5
        assert ctrl.stats.flits_absorbed == 0

    def test_multi_packet_flit_accounting(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))  # 5 flits
        ctrl.accept_packet(_pkt(PacketType.WRITE_RSP))  # 1 flit
        eng.run()
        assert ctrl.stats.flits_entered == 6
        assert ctrl.stats.flits_sent == 6

    def test_occupancy_histogram_records_entry_sizes(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        eng.run()
        assert ctrl.stats.occupancy[16] == 4
        assert ctrl.stats.occupancy[4] == 1

    def test_ptw_vs_data_accounting(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        ctrl.accept_packet(_pkt(PacketType.PT_REQ))
        ctrl.accept_packet(_pkt(PacketType.READ_REQ))
        eng.run()
        assert ctrl.stats.ptw_flits == 1
        assert ctrl.stats.data_flits == 1
        assert ctrl.stats.ptw_bytes == 12


class TestStitching:
    def test_tail_absorbs_read_request(self):
        cfg = NetCrafterConfig.stitching_only()
        eng, ctrl, link, flits = _setup(cfg)
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        ctrl.accept_packet(_pkt(PacketType.READ_REQ))
        eng.run()
        # 5 rsp flits + 1 req flit = 6 entered; req rides in the rsp tail
        assert ctrl.stats.flits_entered == 6
        assert ctrl.stats.flits_sent == 5
        assert ctrl.stats.flits_absorbed == 1
        assert ctrl.stitch_rate() == pytest.approx(1 / 6)

    def test_unstitched_when_nothing_fits(self):
        cfg = NetCrafterConfig.stitching_only()
        eng, ctrl, link, flits = _setup(cfg)
        ctrl.accept_packet(_pkt(PacketType.READ_REQ))
        ctrl.accept_packet(_pkt(PacketType.READ_REQ))  # 12 > 4 empty
        eng.run()
        assert ctrl.stats.flits_sent == 2
        assert ctrl.stats.flits_absorbed == 0

    def test_stitched_flits_unstitch_at_receiver(self):
        cfg = NetCrafterConfig.stitching_only()
        eng, ctrl, link, flits = _setup(cfg)
        rsp, req = _pkt(PacketType.READ_RSP), _pkt(PacketType.READ_REQ)
        ctrl.accept_packet(rsp)
        ctrl.accept_packet(req)
        eng.run()
        done = []
        buf = ReassemblyBuffer(16, done.append)
        for flit in flits:
            buf.receive(flit)
        assert set(done) == {rsp, req}

    def test_interleaved_responses_reassemble_apart(self):
        """Two 5-flit responses whose wire flits interleave complete as
        two packets: the reference keeps a mask per packet number."""
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        a, b = _pkt(), _pkt()
        ctrl.accept_packet(a)
        ctrl.accept_packet(b)
        eng.run()
        assert len(flits) == 10
        done = []
        buf = ReassemblyBuffer(16, done.append)
        for x, y in zip(flits[:5], flits[5:]):
            buf.receive(x)
            buf.receive(y)
        assert done == [a, b]
        assert buf.pending_packets() == 0

    def test_unnumbered_packet_is_refused_by_the_reference(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        ctrl.accept_packet(Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=2))
        eng.run()
        buf = ReassemblyBuffer(16, lambda packet: None)
        with pytest.raises(ValueError, match="unnumbered packet"):
            buf.receive(flits[0])

    def test_wire_bytes_reduced_vs_baseline(self):
        def run(cfg):
            eng, ctrl, link, flits = _setup(cfg)
            for _ in range(10):
                ctrl.accept_packet(_pkt(PacketType.READ_RSP))
                ctrl.accept_packet(_pkt(PacketType.READ_REQ))
            eng.run()
            return link.stats.wire_bytes

        base = run(NetCrafterConfig.baseline())
        stitched = run(NetCrafterConfig.stitching_only())
        assert stitched < base


class TestTrimming:
    def test_trim_applied_at_egress(self):
        cfg = NetCrafterConfig.trimming_only()
        eng, ctrl, link, flits = _setup(cfg)
        pkt = _pkt(bytes_needed=8, trim_allowed=True)
        ctrl.accept_packet(pkt)
        eng.run()
        assert pkt.trimmed
        assert ctrl.packets_trimmed == 1
        assert ctrl.trim_bytes_saved == 48
        assert len(flits) == 2  # 20 B -> 2 flits instead of 5

    def test_trim_skipped_without_bits(self):
        cfg = NetCrafterConfig.trimming_only()
        eng, ctrl, link, flits = _setup(cfg)
        ctrl.accept_packet(_pkt(bytes_needed=8, trim_allowed=False))
        eng.run()
        assert len(flits) == 5
        assert ctrl.packets_trimmed == 0

    def test_trim_disabled_in_baseline(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        ctrl.accept_packet(_pkt(bytes_needed=8, trim_allowed=True))
        eng.run()
        assert len(flits) == 5


class TestSequencing:
    def test_ptw_flits_jump_the_queue(self):
        cfg = NetCrafterConfig.sequencing_only()
        eng, ctrl, link, flits = _setup(cfg)
        data = [_pkt(PacketType.READ_RSP) for _ in range(3)]
        for p in data:
            ctrl.accept_packet(p)
        pt = _pkt(PacketType.PT_RSP)
        ctrl.accept_packet(pt)
        eng.run()
        # the PT flit must not be last even though it arrived last
        order = [f.packet.pid for f in flits]
        assert order.index(pt.pid) < len(order) - 1

    def test_no_priority_in_baseline(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline())
        data = [_pkt(PacketType.READ_RSP) for _ in range(3)]
        for p in data:
            ctrl.accept_packet(p)
        pt = _pkt(PacketType.PT_RSP)
        ctrl.accept_packet(pt)
        eng.run()
        assert flits[-1].packet.pid == pt.pid  # strict FIFO


class TestPooling:
    def test_idle_link_overrides_pooling(self):
        """Work-conserving egress: with nothing else to send, a pooled
        flit is served instead of idling the link for the window."""
        cfg = NetCrafterConfig.stitching_with_selective_pooling(200)
        eng = Engine()
        arrivals = []
        link = _wire(eng, 16.0, 0, lambda f: arrivals.append(eng.now))
        ctrl = NetCrafterController(eng, "ctrl", link, 16, cfg)
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        eng.run()
        assert len(arrivals) == 5
        assert ctrl.pooling.flits_pooled == 1
        assert ctrl.pooling.pooled_then_ejected == 1
        assert arrivals[-1] < 32  # not delayed by the 200-cycle window

    def test_override_serves_at_pooled_at_plus_grace(self):
        """The override fires at ``pooled_at + pooling_grace`` exactly:
        the grace lets in-flight candidates arrive, after which idling
        the link any longer has no upside."""
        cfg = NetCrafterConfig.stitching_with_selective_pooling(200).with_overrides(
            pooling_grace=8
        )
        eng = Engine()
        arrivals = []
        link = _wire(eng, 16.0, 0, lambda f: arrivals.append(eng.now))
        ctrl = NetCrafterController(eng, "ctrl", link, 16, cfg)
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        eng.run()
        # 4 full flits depart cycles 0-3 (arrive 1-4); the tail pools at
        # cycle 4 and the override serves it at 4 + 8 (arrival 13), far
        # before the 200-cycle window expires
        assert arrivals == [1, 2, 3, 4, 13]
        assert ctrl.pooling.pooled_then_ejected == 1

    def test_override_defers_to_a_window_shorter_than_grace(self):
        """min(blocked_until, pooled_at + grace): a window that expires
        before the grace would is what unblocks the partition."""
        cfg = NetCrafterConfig.stitching_with_selective_pooling(16).with_overrides(
            pooling_grace=300
        )
        eng = Engine()
        arrivals = []
        link = _wire(eng, 16.0, 0, lambda f: arrivals.append(eng.now))
        ctrl = NetCrafterController(eng, "ctrl", link, 16, cfg)
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        eng.run()
        # tail pools at cycle 4 until 4 + 16 = 20; served there, arrives 21
        assert arrivals[-1] == 21

    def test_pooled_flit_waits_while_link_has_other_work(self):
        """With competing traffic the pooled partition genuinely defers:
        its tail is served later than strict FIFO order would have."""
        cfg = NetCrafterConfig.stitching_with_selective_pooling(64)
        eng, ctrl, link, flits = _setup(cfg)
        rsp = _pkt(PacketType.READ_RSP)
        ctrl.accept_packet(rsp)
        for _ in range(4):  # write bursts keep the link busy
            ctrl.accept_packet(_pkt(PacketType.WRITE_REQ))
        eng.run()
        order = [f.packet.pid for f in flits]
        # the pooled rsp tail was deferred behind younger write flits
        assert order[-1] == rsp.pid or order.index(rsp.pid) > 5
        assert ctrl.pooling.flits_pooled >= 1

    def test_arrival_releases_pooled_flit_early(self):
        cfg = NetCrafterConfig.stitching_with_selective_pooling(200)
        eng = Engine()
        arrivals = []
        link = _wire(eng, 16.0, 0, lambda f: arrivals.append(eng.now))
        ctrl = NetCrafterController(eng, "ctrl", link, 16, cfg)
        ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        # competing stream so the pooled tail is genuinely waiting
        for _ in range(3):
            ctrl.accept_packet(_pkt(PacketType.WRITE_REQ))
        eng.run(until=8)
        ctrl.accept_packet(_pkt(PacketType.READ_REQ))
        eng.run()
        # the READ_REQ was stitched into the waiting rsp tail
        assert ctrl.stats.flits_absorbed >= 1

    def test_stitched_away_pooled_head_frees_its_partition(self):
        """Regression: when a pooled partition head is absorbed into a
        parent from another partition, its pooling timer must die with
        it — the never-pooled successor behind it must not wait out the
        stale window.  ``early_release=False`` and a grace as long as the
        window isolate the timer-clearing path."""
        cfg = NetCrafterConfig.stitching_with_selective_pooling(300).with_overrides(
            early_release=False, pooling_grace=300
        )
        eng = Engine()
        arrivals = []
        link = _wire(eng, 16.0, 0, lambda f: arrivals.append((eng.now, f)))
        ctrl = NetCrafterController(eng, "ctrl", link, 16, cfg)
        rsp_a = _pkt(PacketType.READ_RSP)
        ctrl.accept_packet(rsp_a)
        eng.run(until=8)  # A's 4 full flits depart; its tail pools until ~305
        assert ctrl.pooling.flits_pooled == 1
        rsp_b = _pkt(PacketType.READ_RSP)
        ctrl.accept_packet(rsp_b)  # queued behind the pooled tail
        eng.run(until=10)
        wr = _pkt(PacketType.WRITE_RSP)  # 4 used/12 empty: absorbs A's tail
        ctrl.accept_packet(wr)
        eng.run()
        assert ctrl.stats.flits_absorbed >= 1
        assert ctrl.queue.stale_timers_cleared == 1
        # B's head flit departs as soon as the wire frees, not at timer
        # expiry (~305, which is where it sat before the fix)
        first_b = min(t for t, f in arrivals if f.packet is rsp_b)
        assert first_b < 100

    def test_ptw_never_pooled_under_selective(self):
        cfg = NetCrafterConfig.stitching_with_selective_pooling(1000)
        eng, ctrl, link, flits = _setup(cfg)
        ctrl.accept_packet(_pkt(PacketType.PT_RSP))
        eng.run()
        assert len(flits) == 1
        assert eng.now < 100
        assert ctrl.pooling.flits_pooled == 0


class TestBackpressure:
    def test_pending_packets_admitted_as_queue_drains(self):
        eng, ctrl, link, flits = _setup(NetCrafterConfig.baseline(), capacity=16)
        for _ in range(10):  # 50 flits > 16 entries
            ctrl.accept_packet(_pkt(PacketType.READ_RSP))
        eng.run()
        assert len(flits) == 50
        assert ctrl.stats.flits_sent == 50

    def test_minimum_capacity_enforced(self):
        with pytest.raises(ValueError):
            _setup(NetCrafterConfig.baseline(), capacity=0)


class TestDataMatchedPriority:
    def test_tagged_data_preferred(self):
        cfg = NetCrafterConfig(
            priority_mode=PriorityMode.DATA_MATCHED, data_priority_fraction=1.0
        )
        eng, ctrl, link, flits = _setup(cfg)
        first = _pkt(PacketType.PT_REQ)  # never tagged
        ctrl.accept_packet(first)
        tagged = _pkt(PacketType.READ_REQ)
        ctrl.accept_packet(tagged)
        eng.run()
        assert flits[0].packet.pid in (first.pid, tagged.pid)
        assert ctrl.sequencer.prioritized_packets == 1
