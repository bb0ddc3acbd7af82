"""Microbenchmarks isolating the simulator's three inner loops.

Each function returns ``(work_units, extra)`` for the harness.  All
inputs are deterministic: the same interpreter sees the same event
sequence every run, so rate differences measure the code, not the
workload.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.cluster_queue import ClusterQueue
from repro.core.stitching import StitchEngine
from repro.network.flit import segment_packet
from repro.network.link import FlitLink, PacketLink
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine

#: sizes are (full, quick); quick keeps CI runners under a few seconds
_DISPATCH_EVENTS = (400_000, 80_000)
_LINK_FLITS = (200_000, 40_000)
_LINK_PACKETS = (100_000, 20_000)
_STITCH_SCANS = (100_000, 20_000)


def _sized(pair: Tuple[int, int], quick: bool) -> int:
    return pair[1] if quick else pair[0]


class _EventChain:
    """A self-rescheduling callback: the cheapest possible event load."""

    __slots__ = ("engine", "remaining")

    def __init__(self, engine: Engine, remaining: int) -> None:
        self.engine = engine
        self.remaining = remaining

    def tick(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            self.engine.schedule(1, self.tick)


def bench_engine_dispatch(quick: bool = False) -> Tuple[int, Dict[str, object]]:
    """Raw event throughput of ``Engine.run`` on trivial callbacks."""
    total = _sized(_DISPATCH_EVENTS, quick)
    chains = 8
    engine = Engine()
    for _ in range(chains):
        chain = _EventChain(engine, total // chains - 1)
        engine.schedule(0, chain.tick)
    engine.run()
    return engine.events_processed, {"chains": chains}


class _FlitPump:
    """Feeds a FlitLink one flit per cycle for as long as flits remain."""

    __slots__ = ("engine", "link", "flits", "index")

    def __init__(self, engine: Engine, link: FlitLink, flits: list) -> None:
        self.engine = engine
        self.link = link
        self.flits = flits
        self.index = 0

    def tick(self) -> None:
        if self.index >= len(self.flits):
            return
        flit = self.flits[self.index]
        if flit.index == 0:
            # stage the packet as an egress controller does: the link
            # counts its flits down and delivers the one completing it
            flit.packet._unsent = flit.pkt_flits
        self.link.send(flit)
        self.index += 1
        self.engine.schedule(max(1, self.link.ready_at() - self.engine.now), self.tick)


def bench_flit_link(quick: bool = False) -> Tuple[int, Dict[str, object]]:
    """Serialization, packet completion and delivery cost of the
    inter-cluster FlitLink."""
    total = _sized(_LINK_FLITS, quick)
    engine = Engine()
    completed = 0

    def sink(_flit, done: int) -> None:
        nonlocal completed
        completed += done.bit_count()

    link = FlitLink(engine, "bench.flit", bytes_per_cycle=16.0, latency=8, sink=sink)
    # a repeating pattern of realistic flits (requests, responses, tails)
    pattern = []
    for ptype in (PacketType.READ_REQ, PacketType.READ_RSP, PacketType.WRITE_RSP):
        packet = Packet(ptype=ptype, src_gpu=0, dst_gpu=2)
        pattern.extend(segment_packet(packet, 16))
    flits = [pattern[i % len(pattern)] for i in range(total)]
    pump = _FlitPump(engine, link, flits)
    engine.schedule(0, pump.tick)
    engine.run()
    # a packet completes with its last flit; the run may end mid-packet
    expected = sum(flit.index == flit.pkt_flits - 1 for flit in flits)
    assert completed == expected, f"completed {completed} of {expected} packets"
    return total, {"wire_bytes": link.stats.wire_bytes}


class _PacketProducer:
    """Keeps a PacketLink's bounded queue topped up under backpressure."""

    __slots__ = ("link", "packets", "index")

    def __init__(self, link: PacketLink, packets: list) -> None:
        self.link = link
        self.packets = packets
        self.index = 0

    def fill(self) -> None:
        while self.index < len(self.packets):
            if not self.link.send(self.packets[self.index]):
                self.link.notify_on_space(self.fill)
                return
            self.index += 1


def bench_packet_link(quick: bool = False) -> Tuple[int, Dict[str, object]]:
    """Queue + drain + delivery cost of the intra-cluster PacketLink."""
    total = _sized(_LINK_PACKETS, quick)
    engine = Engine()
    delivered = 0

    def sink(_packet) -> None:
        nonlocal delivered
        delivered += 1

    link = PacketLink(
        engine,
        "bench.pkt",
        bytes_per_cycle=128.0,
        latency=8,
        flit_size=16,
        sink=sink,
        buffer_entries=256,
    )
    pattern = [
        Packet(ptype=ptype, src_gpu=0, dst_gpu=1)
        for ptype in (PacketType.READ_REQ, PacketType.READ_RSP, PacketType.WRITE_REQ)
    ]
    packets = [pattern[i % len(pattern)] for i in range(total)]
    producer = _PacketProducer(link, packets)
    producer.fill()
    engine.run()
    assert delivered == total, f"delivered {delivered} of {total} packets"
    return total, {"wire_bytes": link.stats.wire_bytes}


def bench_stitch_scan(quick: bool = False) -> Tuple[int, Dict[str, object]]:
    """Cluster Queue stitch-candidate scan over a populated staging SRAM.

    The queue is staged with a realistic type mix and the scanned parent
    has too little padding for any candidate, so every scan walks the
    full search window without mutating the queue — a pure measurement
    of the stitch engine's inner loop.
    """
    scans = _sized(_STITCH_SCANS, quick)
    queue = ClusterQueue(capacity=256, partition_by_type=True, separate_ptw=True)
    for i in range(32):
        for ptype in (
            PacketType.READ_REQ,
            PacketType.WRITE_RSP,
            PacketType.PT_REQ,
            PacketType.READ_RSP,
        ):
            packet = Packet(ptype=ptype, src_gpu=0, dst_gpu=2)
            for flit in segment_packet(packet, 16):
                queue.push(flit)
    # the parent: a response tail with 2 padding bytes — below every
    # candidate's stitch cost, so no candidate ever fits
    parent_packet = Packet(
        ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=2, payload_bytes=58
    )
    parent = segment_packet(parent_packet, 16)[-1]
    assert parent.empty_bytes == 2
    engine = StitchEngine(search_depth=8)
    found = 0
    for _ in range(scans):
        if engine.find_candidate(parent, queue) is not None:  # pragma: no cover
            found += 1
    assert found == 0, "scan benchmark must not find (or absorb) candidates"
    return scans, {"staged_flits": len(queue)}
