"""Per-flit / per-packet lifecycle event tracer.

NetCrafter's mechanisms are *byte-routing* decisions — where a flit's
padding went (stitching), how long a flit waited for company (pooling),
which bytes were dropped in flight (trimming) — and aggregate counters
cannot explain a single wrong figure.  The tracer records the lifecycle
of every (sampled) packet and its flits as structured events:

==========  =====================================================
event       meaning
==========  =====================================================
inject      RDMA engine handed the packet to the network
trim        Trim Engine shrank a read response at the egress
stage       flit entered a Cluster Queue partition
pool        flit was pooled (its partition timer was set)
stitch      flit was absorbed into a parent flit (carries both ids)
eject       flit left the Cluster Queue toward the wire
wire_start  flit began serializing onto an inter-cluster link
deliver     flit (or a stitched child) reached the remote switch
==========  =====================================================

Events live in a bounded ring buffer (oldest dropped first) and export
as JSONL — one self-describing object per line, see
:mod:`repro.obs.schema` — or as Chrome ``trace_event`` JSON that loads
directly in ``chrome://tracing`` / Perfetto.

The disabled path is :data:`NULL_TRACER`: a singleton whose ``enabled``
flag is ``False``.  Hot-path components mix in :class:`Traced`, which
caches the enabled flag as ``self._trace_on`` when the tracer is
assigned — emission guards are then a single attribute load and branch,
with no repeated ``tracer.enabled`` chasing per event.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional

#: bump when the meaning of emitted records changes
TRACE_SCHEMA_VERSION = 1


class NullTracer:
    """Do-nothing tracer used when tracing is disabled (the default)."""

    __slots__ = ()
    enabled = False

    def packet_event(self, cycle, event, packet, **extra) -> None:
        pass

    def flit_event(self, cycle, event, flit, **extra) -> None:
        pass


#: shared disabled tracer; components default their ``tracer`` attr to this
NULL_TRACER = NullTracer()


class Traced:
    """Mixin giving a component a tracer with a pre-hoisted enable flag.

    Assigning ``component.tracer = tracer`` (done once by the
    observability wiring) captures ``tracer.enabled`` into
    ``self._trace_on``, so per-event emission sites check one cached
    boolean instead of dereferencing ``self.tracer.enabled`` millions of
    times in the disabled case.  Tracers never flip ``enabled`` mid-run,
    so caching at assignment is safe.
    """

    _tracer = NULL_TRACER
    _trace_on = False

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._trace_on = bool(tracer.enabled)


class EventTracer:
    """Ring-buffered lifecycle tracer with packet-granular sampling.

    ``sample=N`` keeps every Nth request of each requester, chosen by the
    requester-table tag, together with all of its flits, its retry clones
    and its response (both carry the request's tag) — one packet's
    lifecycle is always recorded whole, since sampling individual events
    would break sequence validation.  Tags are minted per RDMA engine, so
    the choice is the same on the single engine and on any shard count.
    """

    enabled = True

    def __init__(self, sample: int = 1, ring_capacity: int = 1_000_000) -> None:
        if sample < 1:
            raise ValueError("sample rate must be >= 1")
        if ring_capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.sample = int(sample)
        self.ring_capacity = int(ring_capacity)
        self._events: deque = deque(maxlen=self.ring_capacity)
        self.emitted = 0

    # -- emission ----------------------------------------------------------

    def wants_packet(self, packet) -> bool:
        """Sampling decision, stable per request (see the class docstring)."""
        return packet.tag % self.sample == 0

    def packet_event(self, cycle: int, event: str, packet, **extra) -> None:
        """Record a packet-level event (inject, trim)."""
        if not self.wants_packet(packet):
            return
        record = {
            "cycle": int(cycle),
            "event": event,
            "packet": packet.pid,
            "ptype": packet.ptype.value,
            "src": packet.src_gpu,
            "dst": packet.dst_gpu,
        }
        if extra:
            record.update(extra)
        self._events.append(record)
        self.emitted += 1

    def flit_event(self, cycle: int, event: str, flit, **extra) -> None:
        """Record a flit-level event (stage ... deliver)."""
        packet = flit.packet
        if not self.wants_packet(packet):
            return
        record = {
            "cycle": int(cycle),
            "event": event,
            "flit": flit.fid,
            "packet": packet.pid,
            "ptype": packet.ptype.value,
            "src": packet.src_gpu,
            "dst": packet.dst_gpu,
        }
        if extra:
            record.update(extra)
        self._events.append(record)
        self.emitted += 1

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self._events)

    def events(self) -> List[Dict[str, object]]:
        """All retained events, sorted by cycle (stable within a cycle).

        Events are emitted in dispatch order but a link emits ``deliver``
        with its (future) arrival cycle at send time, so the raw ring is
        not cycle-sorted.
        """
        return sorted(self._events, key=lambda r: r["cycle"])

    # -- export ------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the record count."""
        events = self.events()
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "event": "trace_meta",
                        "cycle": 0,
                        "schema": TRACE_SCHEMA_VERSION,
                        "sample": self.sample,
                        "records": len(events),
                        "dropped": self.dropped,
                    }
                )
            )
            handle.write("\n")
            for record in events:
                handle.write(json.dumps(record))
                handle.write("\n")
        return len(events)

    def to_chrome(self, path: Optional[str] = None) -> Dict[str, object]:
        """Build (and optionally write) Chrome ``trace_event`` JSON.

        The result loads in ``chrome://tracing`` and Perfetto: one
        timeline thread per lane (a link or controller name), instant
        events for lifecycle points, and complete ("X") slices for wire
        occupancy (``wire_start`` records carrying a duration).  Cycle
        timestamps are presented as microseconds, so at the 1 GHz clock
        1 displayed us = 1 simulated cycle.
        """
        tids: Dict[str, int] = {}
        trace_events: List[Dict[str, object]] = []

        def tid_for(lane: str) -> int:
            tid = tids.get(lane)
            if tid is None:
                tid = len(tids) + 1
                tids[lane] = tid
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": lane},
                    }
                )
            return tid

        for record in self.events():
            lane = str(record.get("lane", record.get("link", "lifecycle")))
            entry: Dict[str, object] = {
                "name": record["event"],
                "cat": "flit" if "flit" in record else "packet",
                "pid": 1,
                "tid": tid_for(lane),
                "ts": record["cycle"],
                "args": {
                    k: v for k, v in record.items() if k not in ("cycle", "event")
                },
            }
            if "dur" in record:
                entry["ph"] = "X"
                entry["dur"] = record["dur"]
            else:
                entry["ph"] = "i"
                entry["s"] = "t"
            trace_events.append(entry)

        doc = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA_VERSION,
                "sample": self.sample,
                "dropped": self.dropped,
            },
        }
        if path is not None:
            with open(path, "w") as handle:
                json.dump(doc, handle)
        return doc

    # -- analysis helpers --------------------------------------------------

    def lifecycle_of(self, fid: int) -> List[Dict[str, object]]:
        """The ordered event sequence of one flit id."""
        return [r for r in self.events() if r.get("flit") == fid]

    def count_by_event(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self._events:
            counts[record["event"]] = counts.get(record["event"], 0) + 1
        return counts


def iter_jsonl(path: str) -> Iterable[Dict[str, object]]:
    """Yield records from a trace JSONL file (meta line included)."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
