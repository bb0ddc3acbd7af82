"""Tests for the flit-lifecycle event tracer and its exports."""

import itertools
import json

import pytest

from repro.network.flit import segment_packet
from repro.network.packet import Packet, PacketType
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    EventTracer,
    NullTracer,
    iter_jsonl,
)


#: distinct IDs for hand-built packets and flits (a simulated run mints
#: them in its RDMA engines and egress controllers)
_ids = itertools.count()


def _packet(ptype=PacketType.READ_REQ, tag=0):
    return Packet(ptype=ptype, src_gpu=0, dst_gpu=2, tag=tag, pid=next(_ids))


def _flit(ptype=PacketType.READ_REQ, tag=0):
    flit = segment_packet(_packet(ptype, tag), 16)[0]
    flit.fid = next(_ids)
    return flit


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        # no-ops must not raise even with garbage arguments
        NULL_TRACER.packet_event(0, "inject", None)
        NULL_TRACER.flit_event(0, "stage", None, anything=1)

    def test_singleton_has_no_dict(self):
        with pytest.raises(AttributeError):
            NullTracer().stash = 1


class TestEventTracer:
    def test_packet_event_fields(self):
        tracer = EventTracer()
        pkt = _packet()
        tracer.packet_event(5, "inject", pkt, lane="rdma0")
        (record,) = tracer.events()
        assert record["cycle"] == 5
        assert record["event"] == "inject"
        assert record["packet"] == pkt.pid
        assert record["ptype"] == pkt.ptype.value
        assert record["src"] == 0 and record["dst"] == 2
        assert record["lane"] == "rdma0"

    def test_flit_event_fields(self):
        tracer = EventTracer()
        flit = _flit()
        tracer.flit_event(7, "stage", flit, part="read_req")
        (record,) = tracer.events()
        assert record["flit"] == flit.fid
        assert record["packet"] == flit.packet.pid
        assert record["part"] == "read_req"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EventTracer(sample=0)
        with pytest.raises(ValueError):
            EventTracer(ring_capacity=0)

    def test_sampling_is_packet_granular(self):
        """``sample=N`` keeps the packets whose requester-table tag is a
        multiple of N — a request, its retry clones and its response all
        carry the same tag — each with its whole flit lifecycle."""
        tracer = EventTracer(sample=2)
        kept, skipped = [], []
        for tag in range(8):
            for ptype in (PacketType.READ_REQ, PacketType.READ_RSP):
                flit = _flit(ptype, tag=tag)
                tracer.flit_event(0, "stage", flit)
                tracer.flit_event(1, "eject", flit)
                assert tracer.wants_packet(flit.packet) == (tag % 2 == 0)
                (kept if tag % 2 == 0 else skipped).append(flit)
        assert len(kept) == len(skipped) == 8
        traced_pids = {r["packet"] for r in tracer.events()}
        assert traced_pids == {f.packet.pid for f in kept}
        # sampled packets keep their whole lifecycle (both events)
        for flit in kept:
            assert len([r for r in tracer.events() if r["flit"] == flit.fid]) == 2

    def test_ring_drops_oldest(self):
        tracer = EventTracer(ring_capacity=3)
        flits = [_flit() for _ in range(5)]
        for i, flit in enumerate(flits):
            tracer.flit_event(i, "stage", flit)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [r["flit"] for r in tracer.events()] == [f.fid for f in flits[2:]]

    def test_events_sorted_by_cycle(self):
        tracer = EventTracer()
        a, b = _flit(), _flit()
        tracer.flit_event(10, "deliver", a)  # future arrival, emitted early
        tracer.flit_event(3, "stage", b)
        assert [r["cycle"] for r in tracer.events()] == [3, 10]

    def test_lifecycle_of_and_counts(self):
        tracer = EventTracer()
        flit = _flit()
        tracer.flit_event(0, "stage", flit)
        tracer.flit_event(2, "eject", flit)
        tracer.flit_event(0, "stage", _flit())
        assert [r["event"] for r in tracer.lifecycle_of(flit.fid)] == [
            "stage",
            "eject",
        ]
        assert tracer.count_by_event() == {"stage": 2, "eject": 1}


class TestJsonlExport:
    def test_round_trip_with_meta_header(self, tmp_path):
        tracer = EventTracer(sample=1)
        flit = _flit()
        tracer.flit_event(0, "stage", flit)
        tracer.flit_event(1, "eject", flit)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(path) == 2
        records = list(iter_jsonl(path))
        meta, body = records[0], records[1:]
        assert meta["event"] == "trace_meta"
        assert meta["schema"] == TRACE_SCHEMA_VERSION
        assert meta["records"] == 2
        assert meta["dropped"] == 0
        assert [r["event"] for r in body] == ["stage", "eject"]

    def test_meta_reports_drops(self, tmp_path):
        tracer = EventTracer(ring_capacity=1)
        tracer.flit_event(0, "stage", _flit())
        tracer.flit_event(1, "stage", _flit())
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        meta = next(iter_jsonl(path))
        assert meta["dropped"] == 1


class TestChromeExport:
    def test_document_shape(self, tmp_path):
        tracer = EventTracer()
        flit = _flit()
        tracer.flit_event(0, "stage", flit, lane="ctl0")
        tracer.flit_event(2, "wire_start", flit, link="link0", dur=1.0)
        path = tmp_path / "trace.json"
        doc = tracer.to_chrome(path)
        # the written file parses to the same document Chrome would load
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))
        assert doc["otherData"]["schema"] == TRACE_SCHEMA_VERSION
        events = doc["traceEvents"]
        named = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in named} == {"ctl0", "link0"}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1 and slices[0]["dur"] == 1.0
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["s"] == "t"

    def test_lanes_get_distinct_threads(self):
        tracer = EventTracer()
        tracer.flit_event(0, "stage", _flit(), lane="a")
        tracer.flit_event(0, "stage", _flit(), lane="b")
        doc = tracer.to_chrome()
        tids = {
            e["tid"] for e in doc["traceEvents"] if e["ph"] == "i"
        }
        assert len(tids) == 2
