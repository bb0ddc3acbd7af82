"""Tests for the cluster switch (routing, pipeline) and for the per-flit
reassembly reference that sender-side packet completion is checked
against."""

import pytest

from repro.network.flit import DuplicateFlitError, Flit, segment_packet
from repro.network.link import FlitLink, PacketLink
from repro.network.packet import Packet, PacketType
from repro.network.switch import ClusterSwitch
from repro.sim.engine import Engine

from tests.network.per_flit import ReassemblyBuffer, staged

CLUSTER_MAP = {0: 0, 1: 0, 2: 1, 3: 1}


def _switch(eng, cluster=0, pipeline=30):
    return ClusterSwitch(
        eng, f"sw{cluster}", cluster_id=cluster,
        cluster_of_gpu=CLUSTER_MAP, pipeline_latency=pipeline,
    )


class _FakeEgress:
    def __init__(self):
        self.packets = []

    def accept_packet(self, packet):
        self.packets.append(packet)


class TestReassembly:
    def test_single_flit_packet_delivers_immediately(self):
        done = []
        buf = ReassemblyBuffer(16, done.append)
        pkt = Packet(ptype=PacketType.READ_REQ, src_gpu=2, dst_gpu=0, pid=1)
        buf.receive(segment_packet(pkt, 16)[0])
        assert done == [pkt]
        assert buf.pending_packets() == 0

    def test_multi_flit_packet_waits_for_all(self):
        done = []
        buf = ReassemblyBuffer(16, done.append)
        pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=1)
        flits = segment_packet(pkt, 16)
        for flit in flits[:-1]:
            buf.receive(flit)
            assert done == []
        buf.receive(flits[-1])
        assert done == [pkt]

    def test_out_of_order_flits_still_complete(self):
        done = []
        buf = ReassemblyBuffer(16, done.append)
        pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=1)
        flits = segment_packet(pkt, 16)
        for flit in reversed(flits):
            buf.receive(flit)
        assert done == [pkt]

    def test_unstitching_counts_embedded_flits(self):
        done = []
        buf = ReassemblyBuffer(16, done.append)
        rsp = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=1)
        req = Packet(ptype=PacketType.READ_REQ, src_gpu=2, dst_gpu=0, pid=2)
        rsp_flits = segment_packet(rsp, 16)
        req_flit = segment_packet(req, 16)[0]
        rsp_flits[-1].absorb(req_flit)
        for flit in rsp_flits:
            buf.receive(flit)
        assert rsp in done and req in done
        assert buf.flits_unstitched == 1

    def test_interleaved_packets(self):
        done = []
        buf = ReassemblyBuffer(16, done.append)
        a = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=0)
        b = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=1, pid=1)
        fa, fb = segment_packet(a, 16), segment_packet(b, 16)
        for x, y in zip(fa, fb):
            buf.receive(x)
            buf.receive(y)
        assert set(done) == {a, b}


class TestDuplicateFlitGuard:
    """The reassembly bitmask rejects repeated or impossible indices.

    Regression: the old bookkeeping only *counted* flits per packet id,
    so a duplicated delivery (a routing or stitching bug upstream)
    silently completed the packet early while a later flit of the same
    packet leaked into the pending map forever.
    """

    def test_duplicate_flit_raises(self):
        buf = ReassemblyBuffer(16, lambda p: None)
        pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=1)
        flits = segment_packet(pkt, 16)
        buf.receive(flits[0])
        with pytest.raises(DuplicateFlitError):
            buf.receive(flits[0])

    def test_duplicate_does_not_complete_the_packet(self):
        done = []
        buf = ReassemblyBuffer(16, done.append)
        pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=1)
        flits = segment_packet(pkt, 16)
        buf.receive(flits[0])
        buf.receive(flits[1])
        with pytest.raises(DuplicateFlitError):
            buf.receive(flits[1])
        assert done == []
        assert buf.pending_packets() == 1

    def test_out_of_range_index_raises(self):
        buf = ReassemblyBuffer(16, lambda p: None)
        pkt = Packet(ptype=PacketType.READ_REQ, src_gpu=2, dst_gpu=0, pid=1)
        rogue = Flit(packet=pkt, index=5, used_bytes=16, flit_size=16)
        with pytest.raises(DuplicateFlitError):
            buf.receive(rogue)

    def test_duplicate_stitched_segment_raises(self):
        """A duplicate hidden inside a stitched parent is still caught."""
        buf = ReassemblyBuffer(16, lambda p: None)
        a = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=1)
        b = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, pid=2)
        parent = segment_packet(a, 16)[-1]  # tail: 4 used, 12 empty
        b_tail = segment_packet(b, 16)[-1]  # partial candidate, cost 7
        parent.absorb(b_tail)
        buf.receive(b_tail)  # upstream bug: the flit also went out unstitched
        with pytest.raises(DuplicateFlitError):
            buf.receive(parent)


class TestSwitchRouting:
    def test_local_packet_forwarded_to_gpu_link(self):
        eng = Engine()
        sw = _switch(eng, cluster=0, pipeline=5)
        delivered = []
        link = PacketLink(eng, "down", 128.0, 0, 16, sink=delivered.append)
        sw.attach_gpu_link(1, link)
        pkt = Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1)
        sw.receive_packet_from_gpu(pkt)
        eng.run()
        assert delivered == [pkt]
        assert sw.packets_routed == 1

    def test_remote_packet_handed_to_egress(self):
        eng = Engine()
        sw = _switch(eng, cluster=0)
        egress = _FakeEgress()
        sw.attach_egress(1, egress)
        pkt = Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=3)
        sw.receive_packet_from_gpu(pkt)
        eng.run()
        assert egress.packets == [pkt]

    def test_pipeline_latency_applied(self):
        eng = Engine()
        sw = _switch(eng, cluster=0, pipeline=30)
        egress = _FakeEgress()
        times = []
        original = egress.accept_packet
        egress.accept_packet = lambda p: (times.append(eng.now), original(p))
        sw.attach_egress(1, egress)
        sw.receive_packet_from_gpu(Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=2))
        eng.run()
        assert times == [30]

    def test_flits_from_network_reassemble_then_route(self):
        eng = Engine()
        sw = _switch(eng, cluster=0, pipeline=5)
        delivered = []
        link = PacketLink(eng, "down", 128.0, 0, 16, sink=delivered.append)
        sw.attach_gpu_link(0, link)
        wire = FlitLink(eng, "sw1->sw0", 128.0, 0, sink=sw.receive_flit_from_network)
        pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0)
        for flit in staged(segment_packet(pkt, 16)):
            wire.send(flit)  # 128 B/cycle: all five start in cycle 0
        eng.run()
        assert delivered == [pkt]
        assert sw.packets_routed == 1

    def test_full_downlink_retries(self):
        eng = Engine()
        sw = _switch(eng, cluster=0, pipeline=1)
        delivered = []
        link = PacketLink(eng, "down", 16.0, 0, 16, sink=delivered.append, buffer_entries=1)
        sw.attach_gpu_link(0, link)
        for _ in range(3):
            sw.receive_packet_from_gpu(
                Packet(ptype=PacketType.READ_RSP, src_gpu=1, dst_gpu=0)
            )
        eng.run()
        assert len(delivered) == 3
