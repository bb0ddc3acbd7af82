"""Tests for flit segmentation and stitching mechanics."""

import pytest
from hypothesis import given, strategies as st

from repro.network.flit import (
    STITCH_METADATA_BYTES,
    StitchKind,
    segment_packet,
)
from repro.network.packet import Packet, PacketType


def _packet(ptype=PacketType.READ_RSP, payload=None, dst=1):
    kwargs = {} if payload is None else {"payload_bytes": payload}
    return Packet(ptype=ptype, src_gpu=0, dst_gpu=dst, **kwargs)


def test_read_rsp_segments_into_five_flits():
    flits = segment_packet(_packet(), 16)
    assert [f.used_bytes for f in flits] == [16, 16, 16, 16, 4]


def test_single_flit_packet():
    flits = segment_packet(_packet(PacketType.READ_REQ), 16)
    assert len(flits) == 1
    assert flits[0].used_bytes == 12
    assert flits[0].empty_bytes == 4


def test_invalid_flit_size_rejected():
    with pytest.raises(ValueError):
        segment_packet(_packet(), 0)


def test_stitch_cost_whole_packet_has_no_metadata():
    flit = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]
    assert flit.stitch_cost() == 4
    assert flit.stitch_kind() is StitchKind.WHOLE_PACKET


def test_stitch_cost_partial_payload_adds_metadata():
    tail = segment_packet(_packet(), 16)[-1]
    assert tail.stitch_cost() == 4 + STITCH_METADATA_BYTES
    assert tail.stitch_kind() is StitchKind.PARTIAL_PAYLOAD


def test_absorb_whole_packet():
    parent = segment_packet(_packet(), 16)[-1]  # 12 empty
    candidate = segment_packet(_packet(PacketType.READ_REQ), 16)[0]  # cost 12
    assert parent.can_absorb(candidate)
    segment = parent.absorb(candidate)
    assert segment.kind is StitchKind.WHOLE_PACKET
    assert segment.wire_bytes == 12
    assert parent.empty_bytes == 0


def test_absorb_partial_payload_counts_metadata():
    parent = segment_packet(_packet(), 16)[-1]  # 12 empty
    candidate = segment_packet(_packet(), 16)[-1]  # tail: 4 used -> cost 7
    segment = parent.absorb(candidate)
    assert segment.kind is StitchKind.PARTIAL_PAYLOAD
    assert segment.wire_bytes == 7
    assert parent.empty_bytes == 12 - 7


def test_absorb_too_large_rejected():
    parent = segment_packet(_packet(PacketType.READ_REQ), 16)[0]  # 4 empty
    candidate = segment_packet(_packet(PacketType.PT_RSP), 16)[0]  # cost 12
    assert not parent.can_absorb(candidate)
    with pytest.raises(ValueError):
        parent.absorb(candidate)


def test_cannot_absorb_self():
    flit = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]
    assert not flit.can_absorb(flit)


def test_cannot_absorb_already_stitched_parent():
    parent = segment_packet(_packet(), 16)[-1]
    inner = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]
    parent.absorb(inner)
    other = segment_packet(_packet(), 16)[-1]
    assert not other.can_absorb(parent)


def test_multiple_candidates_until_full():
    parent = segment_packet(_packet(), 16)[-1]  # 12 empty
    first = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]  # 4
    second = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]  # 4
    third = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]  # 4
    for candidate in (first, second, third):
        parent.absorb(candidate)
    assert parent.empty_bytes == 0
    fourth = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]
    assert not parent.can_absorb(fourth)


def test_all_carried_flits_includes_stitched():
    parent = segment_packet(_packet(), 16)[-1]
    inner = segment_packet(_packet(PacketType.WRITE_RSP), 16)[0]
    parent.absorb(inner)
    carried = parent.all_carried_flits()
    assert parent in carried and inner in carried
    assert len(carried) == 2


def test_flit_properties_forward_packet_fields():
    pkt = _packet(PacketType.PT_REQ, dst=3)
    flit = segment_packet(pkt, 16)[0]
    assert flit.dst_gpu == 3
    assert flit.is_ptw


@given(
    ptype=st.sampled_from(list(PacketType)),
    payload=st.integers(0, 64),
    flit_size=st.sampled_from([8, 16, 32]),
)
def test_segmentation_conserves_bytes(ptype, payload, flit_size):
    """Property: per-flit used bytes sum exactly to the packet's bytes."""
    pkt = Packet(ptype=ptype, src_gpu=0, dst_gpu=1, payload_bytes=payload)
    flits = segment_packet(pkt, flit_size)
    assert sum(f.used_bytes for f in flits) == pkt.bytes_required
    assert len(flits) == pkt.flit_count(flit_size)
    assert all(1 <= f.used_bytes <= flit_size for f in flits)
    # only the tail may be partially filled
    for f in flits[:-1]:
        assert f.used_bytes == flit_size


@given(payloads=st.lists(st.integers(0, 64), min_size=2, max_size=6))
def test_stitching_never_overflows_flit(payloads):
    """Property: absorbing any mix of candidates keeps wire bytes <= size."""
    parent = segment_packet(_packet(payload=payloads[0]), 16)[-1]
    for payload in payloads[1:]:
        candidate = segment_packet(_packet(payload=payload), 16)[-1]
        if parent.can_absorb(candidate):
            parent.absorb(candidate)
        used = parent.used_bytes + sum(s.wire_bytes for s in parent.segments)
        assert used <= parent.flit_size
