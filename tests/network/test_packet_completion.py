"""Sender-side packet completion against per-flit reassembly.

A fault-free, untraced :class:`~repro.network.link.FlitLink` into a
switch counts each packet's flits down as it sends them and delivers
only the wire flit that completes a packet.  The differential test runs
the same random traffic through controllers, links and a receiving
switch twice — once completing packets on the sending side, once
delivering every flit into the switch's :class:`ReassemblyBuffer` — and
asserts the switch routes the same packets at the same cycles, in the
same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NetCrafterConfig
from repro.core.controller import NetCrafterController
from repro.network.flit import DuplicateFlitError, segment_packet
from repro.network.link import FlitLink
from repro.network.packet import Packet, PacketType
from repro.network.switch import ClusterSwitch
from repro.sim.engine import Engine

PIPELINE = 7

VARIANTS = {
    "baseline": NetCrafterConfig.baseline,
    "stitching": NetCrafterConfig.stitching_only,
    "full": NetCrafterConfig.full,
}


class _RecordingDownlink:
    """A switch->GPU link that records ``(cycle, pid)`` per routed packet."""

    def __init__(self, engine, routed):
        self.engine = engine
        self.routed = routed

    def send(self, packet):
        self.routed.append((self.engine.now, packet.pid))
        return True


def _drive(stream, variant, bandwidths, completes_packets):
    """Send ``stream`` from one controller per bandwidth into switch 1;
    returns the ``(cycle, pid)`` sequence the switch routed."""
    engine = Engine()
    routed = []
    switch = ClusterSwitch(
        engine,
        "switch1",
        cluster_id=1,
        cluster_of_gpu={0: 0, 1: 1},
        pipeline_latency=PIPELINE,
        flit_size=16,
    )
    switch.attach_gpu_link(1, _RecordingDownlink(engine, routed))
    controllers = []
    for rank, bandwidth in enumerate(bandwidths):
        link = FlitLink(
            engine,
            f"link{rank}",
            bandwidth,
            latency=3,
            sink=switch.receive_flit_from_network,
            completes_packets=completes_packets,
        )
        link.delivery_rank = rank
        controllers.append(
            NetCrafterController(
                engine, f"egress{rank}", link, 16, VARIANTS[variant](), queue_capacity=64
            )
        )
    for pid, (ptype, delay, needed, trim, lane) in enumerate(stream):
        packet = Packet(
            ptype=ptype,
            src_gpu=0,
            dst_gpu=1,
            bytes_needed=needed,
            trim_allowed=trim,
            pid=pid,
        )
        controller = controllers[lane % len(controllers)]
        engine.schedule(delay, controller.accept_packet, packet)
    engine.run(max_events=200_000)
    assert engine.pending_events() == 0, "egress deadlocked"
    assert switch.reassembly.pending_packets() == 0
    return routed


streams = st.lists(
    st.tuples(
        st.sampled_from(list(PacketType)),
        st.integers(0, 200),  # injection delay
        st.integers(1, 64),  # bytes needed
        st.booleans(),  # trim bits set
        st.integers(0, 1),  # which link
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(
    stream=streams,
    variant=st.sampled_from(sorted(VARIANTS)),
    bandwidths=st.lists(
        st.sampled_from([8.0, 12.8, 16.0, 32.0, 128.0]), min_size=1, max_size=2
    ),
)
def test_sender_completion_routes_like_per_flit_reassembly(stream, variant, bandwidths):
    reference = _drive(stream, variant, bandwidths, completes_packets=False)
    assert sorted(pid for _cycle, pid in reference) == list(range(len(stream)))
    assert _drive(stream, variant, bandwidths, completes_packets=True) == reference


def _counting_link(engine):
    switch = ClusterSwitch(
        engine, "switch1", cluster_id=1, cluster_of_gpu={0: 0, 1: 1}, flit_size=16
    )
    # 128 B/cycle: several flits may start within one cycle
    return FlitLink(
        engine,
        "link",
        128.0,
        latency=3,
        sink=switch.receive_flit_from_network,
        completes_packets=True,
    )


def _staged(ptype, pid):
    packet = Packet(ptype=ptype, src_gpu=0, dst_gpu=1, pid=pid)
    flits = segment_packet(packet, 16)
    packet._unsent = len(flits)  # what the egress controller does on staging
    return flits


def test_a_flit_sent_twice_raises():
    link = _counting_link(Engine())
    flits = _staged(PacketType.READ_RSP, pid=1)
    for flit in flits:
        link.send(flit)
    with pytest.raises(DuplicateFlitError, match="packet 1"):
        link.send(flits[-1])


def test_a_stitched_segment_sent_twice_raises():
    link = _counting_link(Engine())
    (request,) = _staged(PacketType.READ_REQ, pid=1)
    link.send(request)
    (parent,) = _staged(PacketType.WRITE_RSP, pid=2)
    parent.absorb(request)  # an upstream bug: the request goes out again
    with pytest.raises(DuplicateFlitError, match="packet 1"):
        link.send(parent)
