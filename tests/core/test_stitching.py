"""Tests for the Stitch Engine's candidate search and stitching."""

from repro.core.cluster_queue import ClusterQueue
from repro.core.stitching import StitchEngine
from repro.network.flit import STITCH_METADATA_BYTES, segment_packet
from repro.network.packet import Packet, PacketType


def _queue():
    return ClusterQueue(capacity=64, partition_by_type=True, separate_ptw=False)


def _flits(ptype, payload=None):
    kwargs = {} if payload is None else {"payload_bytes": payload}
    return segment_packet(Packet(ptype=ptype, src_gpu=0, dst_gpu=2, **kwargs), 16)


def _rsp_tail():
    return _flits(PacketType.READ_RSP)[-1]  # 4 used, 12 empty


def test_no_candidates_in_empty_queue():
    engine = StitchEngine()
    assert engine.find_candidate(_rsp_tail(), _queue()) is None


def test_finds_fitting_whole_packet():
    engine = StitchEngine()
    q = _queue()
    req = _flits(PacketType.READ_REQ)[0]  # cost 12
    q.push(req)
    assert engine.find_candidate(_rsp_tail(), q) is req


def test_best_fit_prefers_largest_cost():
    engine = StitchEngine()
    q = _queue()
    small = _flits(PacketType.WRITE_RSP)[0]  # cost 4
    large = _flits(PacketType.READ_REQ)[0]  # cost 12
    q.push(small)
    q.push(large)
    assert engine.find_candidate(_rsp_tail(), q) is large


def test_oversized_candidates_skipped():
    engine = StitchEngine()
    q = _queue()
    full = _flits(PacketType.READ_RSP)[0]  # 16 used: cost 19
    q.push(full)
    assert engine.find_candidate(_rsp_tail(), q) is None


def test_partial_candidate_cost_includes_metadata():
    engine = StitchEngine()
    q = _queue()
    other_tail = _rsp_tail()  # cost 4 + metadata
    q.push(other_tail)
    parent = _rsp_tail()
    assert engine.find_candidate(parent, q) is other_tail
    engine.stitch_all(parent, q)
    assert parent.segments[0].wire_bytes == 4 + STITCH_METADATA_BYTES


def test_stitch_all_removes_candidates_from_queue():
    engine = StitchEngine()
    q = _queue()
    a = _flits(PacketType.WRITE_RSP)[0]
    b = _flits(PacketType.WRITE_RSP)[0]
    q.push(a)
    q.push(b)
    parent = _rsp_tail()
    absorbed = engine.stitch_all(parent, q)
    assert absorbed == 2
    assert len(q) == 0
    assert {seg.flit for seg in parent.segments} == {a, b}


def test_stitch_all_respects_space():
    engine = StitchEngine()
    q = _queue()
    for _ in range(5):
        q.push(_flits(PacketType.WRITE_RSP)[0])  # cost 4 each
    parent = _rsp_tail()  # 12 empty -> 3 fit
    absorbed = engine.stitch_all(parent, q)
    assert absorbed == 3
    assert len(q) == 2
    assert parent.empty_bytes == 0


def test_search_depth_bounds_visibility():
    engine = StitchEngine(search_depth=2)
    q = _queue()
    # bury the only fitting candidate behind two oversized ones
    for _ in range(2):
        q.push(_flits(PacketType.READ_RSP)[0])  # full flits, never fit
    fitting = _flits(PacketType.WRITE_RSP)[0]
    q.push(fitting)  # third in its own partition, so still visible
    parent = _rsp_tail()
    assert engine.find_candidate(parent, q) is fitting


def test_statistics_accumulate():
    engine = StitchEngine()
    q = _queue()
    q.push(_flits(PacketType.READ_REQ)[0])
    parent = _rsp_tail()
    engine.stitch_all(parent, q)
    assert engine.parents_stitched == 1
    assert engine.candidates_absorbed == 1
    assert engine.bytes_stitched == 12


def test_no_stitch_leaves_stats_untouched():
    engine = StitchEngine()
    q = _queue()
    parent = _flits(PacketType.READ_RSP)[0]  # full: nothing fits
    assert engine.stitch_all(parent, q) == 0
    assert engine.parents_stitched == 0


def test_perfect_fit_early_exit():
    engine = StitchEngine()
    q = _queue()
    perfect = _flits(PacketType.READ_REQ)[0]  # cost 12 == empty 12
    q.push(perfect)
    parent = _rsp_tail()
    assert engine.find_candidate(parent, q) is perfect
