"""Tests for packet layouts — including the Table 1 reproduction."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.rdma import RdmaEngine
from repro.network.packet import (
    CACHE_LINE_BYTES,
    HEADER_BYTES,
    PAYLOAD_BYTES,
    TABLE1_TYPES,
    Packet,
    PacketType,
    packet_census_row,
)
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats

#: Table 1 of the paper, verbatim (16 B flits)
TABLE1 = {
    PacketType.READ_REQ: dict(bytes_occupied=16, bytes_required=12, bytes_padded=4, flits_occupied=1),
    PacketType.WRITE_REQ: dict(bytes_occupied=80, bytes_required=76, bytes_padded=4, flits_occupied=5),
    PacketType.PT_REQ: dict(bytes_occupied=16, bytes_required=12, bytes_padded=4, flits_occupied=1),
    PacketType.READ_RSP: dict(bytes_occupied=80, bytes_required=68, bytes_padded=12, flits_occupied=5),
    PacketType.WRITE_RSP: dict(bytes_occupied=16, bytes_required=4, bytes_padded=12, flits_occupied=1),
    PacketType.PT_RSP: dict(bytes_occupied=16, bytes_required=12, bytes_padded=4, flits_occupied=1),
}


@pytest.mark.parametrize("ptype", TABLE1_TYPES)
def test_table1_census_matches_paper(ptype):
    assert packet_census_row(ptype, 16) == TABLE1[ptype]


def test_table1_types_are_the_paper_six():
    assert len(TABLE1_TYPES) == 6
    assert PacketType.INV_REQ not in TABLE1_TYPES
    assert PacketType.INV_RSP not in TABLE1_TYPES


def test_coherence_extension_types():
    """INV packets are tiny, single-flit, highly stitchable extension
    traffic (Section 4.5 future work)."""
    inv_req = Packet(ptype=PacketType.INV_REQ, src_gpu=0, dst_gpu=2)
    inv_rsp = Packet(ptype=PacketType.INV_RSP, src_gpu=2, dst_gpu=0)
    assert inv_req.bytes_required == 12
    assert inv_req.flit_count(16) == 1
    assert inv_rsp.bytes_required == 4
    assert inv_rsp.bytes_padded(16) == 12
    assert not PacketType.INV_REQ.is_ptw


@pytest.mark.parametrize("ptype", list(PacketType))
def test_bytes_required_is_header_plus_payload(ptype):
    pkt = Packet(ptype=ptype, src_gpu=0, dst_gpu=1)
    assert pkt.bytes_required == HEADER_BYTES[ptype] + PAYLOAD_BYTES[ptype]


def test_ptw_classification():
    assert PacketType.PT_REQ.is_ptw
    assert PacketType.PT_RSP.is_ptw
    assert not PacketType.READ_REQ.is_ptw
    assert not PacketType.READ_RSP.is_ptw


def test_response_classification():
    # responses carry only the 4 B metadata; requests add the 8 B address
    for ptype in (PacketType.READ_RSP, PacketType.WRITE_RSP, PacketType.PT_RSP):
        assert HEADER_BYTES[ptype] == 4
    assert HEADER_BYTES[PacketType.READ_REQ] == 12


def test_default_payload_from_type():
    pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1)
    assert pkt.payload_bytes == CACHE_LINE_BYTES


def test_explicit_payload_respected():
    pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1, payload_bytes=16)
    assert pkt.bytes_required == 4 + 16
    assert pkt.flit_count(16) == 2


def test_trimmed_flag():
    pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1)
    assert not pkt.trimmed
    pkt.original_payload_bytes = pkt.payload_bytes
    pkt.payload_bytes = 16
    assert pkt.trimmed


def test_packet_ids_unique():
    """Each RDMA engine numbers the packets it sends ``gpu_id + k *
    n_gpus`` — requests and responses alike — so IDs never collide
    across GPUs; a packet no engine sent stays unassigned."""
    assert Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1).pid == -1
    eng = Engine()
    sent = []
    engines = {
        gpu: RdmaEngine(eng, f"rdma{gpu}", gpu, lambda g: g // 2, RunStats(), n_gpus=4)
        for gpu in (1, 3)
    }

    def deliver(packet):
        sent.append(packet)
        eng.schedule(5, engines[packet.dst_gpu].receive_packet, packet)

    def l2_request(_addr, _nbytes, _is_write, callback):
        eng.schedule(1, callback)

    for rdma in engines.values():
        rdma.attach(inject=deliver, l2_request=l2_request)
    for _ in range(3):
        engines[1].remote_read(3, 0x40, 64, 0, lambda packet: None)
        engines[3].remote_write(1, 0x80)
    eng.run()
    pids = {gpu: [p.pid for p in sent if p.src_gpu == gpu] for gpu in engines}
    # three requests, then three responses to the other engine's requests
    assert pids == {1: [1, 5, 9, 13, 17, 21], 3: [3, 7, 11, 15, 19, 23]}


def test_flit_count_with_8_byte_flits():
    pkt = Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1)
    # 68 required bytes -> 9 flits of 8 B (72 B occupied, 4 padded)
    assert pkt.flit_count(8) == 9
    assert pkt.bytes_padded(8) == 4


@given(
    ptype=st.sampled_from(list(PacketType)),
    flit_size=st.sampled_from([4, 8, 16, 32, 64]),
)
def test_padding_is_always_less_than_one_flit(ptype, flit_size):
    """Property: padding never reaches a full flit (else it would shrink)."""
    pkt = Packet(ptype=ptype, src_gpu=0, dst_gpu=1)
    assert 0 <= pkt.bytes_padded(flit_size) < flit_size
    assert pkt.bytes_occupied(flit_size) == pkt.flit_count(flit_size) * flit_size


@given(
    ptype=st.sampled_from(list(PacketType)),
    payload=st.integers(0, 64),
    flit_size=st.sampled_from([8, 16]),
)
def test_occupied_covers_required(ptype, payload, flit_size):
    pkt = Packet(ptype=ptype, src_gpu=0, dst_gpu=1, payload_bytes=payload)
    assert pkt.bytes_occupied(flit_size) >= pkt.bytes_required
    assert pkt.flit_count(flit_size) >= 1
