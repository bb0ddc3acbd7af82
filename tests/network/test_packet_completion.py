"""Sender-side packet completion against per-flit reassembly.

An inter-cluster :class:`~repro.network.link.FlitLink` counts each
packet's flits down as it sends them, decides a faulted transmission's
CRC check, and delivers only the wire flit that completes a packet.
The differential test runs the same random traffic through controllers,
links and a receiving switch twice — once completing packets on the
sending side, once delivering every arriving flit through the per-flit
reference (:mod:`tests.network.per_flit`) into a
:class:`ReassemblyBuffer` that checks CRC at the receiver — and asserts
the switch routes the same packets at the same cycles, in the same
order, with the same CRC verdicts, faulted or not, traced or not.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NetCrafterConfig
from repro.core.controller import NetCrafterController
from repro.faults.config import FaultConfig
from repro.faults.process import FATE_DROP, FATE_OK, LinkFaultProcess
from repro.network.flit import DuplicateFlitError, segment_packet
from repro.network.link import FlitLink
from repro.network.packet import Packet, PacketType
from repro.network.switch import ClusterSwitch
from repro.obs.schema import validate_records
from repro.obs.tracer import EventTracer
from repro.sim.engine import Engine
from repro.stats.collectors import FaultStats

from tests.network.per_flit import PerFlitLink, ReassemblyBuffer, staged

PIPELINE = 7

VARIANTS = {
    "baseline": NetCrafterConfig.baseline,
    "stitching": NetCrafterConfig.stitching_only,
    "full": NetCrafterConfig.full,
}

#: every transmission faces a ~60% corruption and a 10% drop chance;
#: the retry budget is deep enough that no flit is abandoned
FAULTS = FaultConfig(ber=0.005, drop_rate=0.1, seed=11, max_link_retries=64)


class _RecordingDownlink:
    """A switch->GPU link that records ``(cycle, pid)`` per routed packet."""

    def __init__(self, engine, routed):
        self.engine = engine
        self.routed = routed

    def send(self, packet):
        self.routed.append((self.engine.now, packet.pid))
        return True


class _ScriptedFates:
    """Fates by ``(pid, attempt)``, clean otherwise: a pure function of
    the transmission, like :class:`LinkFaultProcess`."""

    config = FaultConfig(ber=1e-4, drop_rate=0.1)

    def __init__(self, fates):
        self.fates = fates

    def fate(self, flit, attempt):
        return self.fates.get((flit.packet.pid, attempt), FATE_OK)

    def regime_edges(self, bytes_per_cycle):
        return []


def _random_fates(name):
    return LinkFaultProcess(FAULTS, name, 16)


def _drive(stream, variant, bandwidths, faults, traced, per_flit):
    """Send ``stream`` from one controller per bandwidth into switch 1,
    each link with the fault process ``faults(link name)`` if given.

    Returns the ``(cycle, pid)`` sequence the switch routed and the
    ``(crc_ok, crc_fail)`` verdicts: counted at the receiving
    :class:`ReassemblyBuffer` with ``per_flit``, at the sending links
    otherwise.
    """
    engine = Engine()
    routed = []
    switch = ClusterSwitch(
        engine,
        "switch1",
        cluster_id=1,
        cluster_of_gpu={0: 0, 1: 1},
        pipeline_latency=PIPELINE,
    )
    switch.attach_gpu_link(1, _RecordingDownlink(engine, routed))
    reassembly = ReassemblyBuffer(16, switch.receive_packet_from_gpu)
    fault_stats = FaultStats()
    tracer = EventTracer() if traced else None
    controllers = []
    for rank, bandwidth in enumerate(bandwidths):
        name = f"link{rank}"
        if per_flit:
            link = PerFlitLink(engine, name, bandwidth, 3, reassembly.receive)
        else:
            link = FlitLink(
                engine, name, bandwidth, 3, sink=switch.receive_flit_from_network
            )
        link.delivery_rank = rank
        if faults is not None:
            link.attach_faults(faults(name), fault_stats)
        controller = NetCrafterController(
            engine, f"egress{rank}", link, 16, VARIANTS[variant](), queue_capacity=64
        )
        # flit IDs distinct across links, as the topology builder mints them
        controller.fid_rank, controller.fid_span = rank, len(bandwidths)
        if tracer is not None:
            link.tracer = tracer
            controller.tracer = tracer
        controllers.append(controller)
    for pid, (ptype, delay, needed, trim, lane) in enumerate(stream):
        packet = Packet(
            ptype=ptype,
            src_gpu=0,
            dst_gpu=1,
            addr=pid * 0x40,  # distinct content: distinct fates per packet
            bytes_needed=needed,
            trim_allowed=trim,
            pid=pid,
        )
        packet.inject_cycle = delay
        controller = controllers[lane % len(controllers)]
        engine.schedule(delay, controller.accept_packet, packet)
    engine.run(max_events=400_000)
    assert engine.pending_events() == 0, "egress deadlocked"
    assert fault_stats.flits_abandoned == 0
    if tracer is not None:
        assert validate_records(tracer.events()) == []
    if per_flit:
        assert reassembly.pending_packets() == 0
        return routed, (reassembly.crc_ok, reassembly.crc_fail)
    return routed, (fault_stats.crc_ok, fault_stats.crc_fail)


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
    faulted=st.booleans(),
    traced=st.booleans(),
)
def test_sender_completion_routes_like_per_flit_reassembly(
    stream, variant, bandwidths, faulted, traced
):
    faults = _random_fates if faulted else None
    reference, reference_crc = _drive(
        stream, variant, bandwidths, faults, traced=False, per_flit=True
    )
    assert sorted(pid for _cycle, pid in reference) == list(range(len(stream)))
    routed, crc = _drive(stream, variant, bandwidths, faults, traced, per_flit=False)
    assert routed == reference
    if faulted:
        assert crc == reference_crc
    else:  # no fault process, no CRC verdicts
        assert crc == (0, 0)


def _same_cycle_pair(stream, faults=None):
    """Route ``stream`` over two 16 B/cycle links both ways; the two
    packets reach the switch in the same cycle, so only the sequence
    numbers in their schedule keys order them."""
    reference, _ = _drive(stream, "baseline", [16.0, 16.0], faults, False, per_flit=True)
    routed, _ = _drive(stream, "baseline", [16.0, 16.0], faults, False, per_flit=False)
    (cycle_a, _), (cycle_b, _) = reference
    assert cycle_a == cycle_b
    return routed, reference


def test_a_non_completing_flit_keeps_its_sequence_number():
    # link 0 sends a five-flit response in cycles 0-4 and link 1 a
    # request in cycle 4: both complete in the same cycle, and link 0's
    # four earlier flits put its delivery behind link 1's
    routed, reference = _same_cycle_pair(
        [(PacketType.READ_RSP, 0, 64, False, 0), (PacketType.READ_REQ, 4, 64, False, 1)]
    )
    assert [pid for _cycle, pid in reference] == [1, 0]
    assert routed == reference


def test_a_dropped_copy_takes_no_sequence_number():
    # link 0's request is dropped and resent at the drop timeout, in the
    # cycle link 1 sends its own: the dropped copy never arrived, so
    # link 0's delivery keeps sequence number 0 and goes first by rank
    timeout = _ScriptedFates.config.drop_timeout
    routed, reference = _same_cycle_pair(
        [
            (PacketType.READ_REQ, 0, 64, False, 0),
            (PacketType.READ_REQ, timeout, 64, False, 1),
        ],
        faults=lambda name: _ScriptedFates({(0, 0): FATE_DROP}),
    )
    assert [pid for _cycle, pid in reference] == [0, 1]
    assert routed == reference


def _counting_link(engine, faulted=False):
    switch = ClusterSwitch(engine, "switch1", cluster_id=1, cluster_of_gpu={0: 0, 1: 1})
    switch.attach_gpu_link(1, _RecordingDownlink(engine, []))
    # 128 B/cycle: several flits may start within one cycle
    link = FlitLink(engine, "link", 128.0, latency=3, sink=switch.receive_flit_from_network)
    if faulted:
        link.attach_faults(LinkFaultProcess(FAULTS, "link", 16), FaultStats())
    return link


def _staged(ptype, pid):
    packet = Packet(ptype=ptype, src_gpu=0, dst_gpu=1, addr=pid * 0x40, pid=pid)
    packet.inject_cycle = 0
    return staged(segment_packet(packet, 16))


def _send_twice(faulted):
    engine = Engine()
    link = _counting_link(engine, faulted)
    flits = _staged(PacketType.READ_RSP, pid=1)
    for flit in flits:
        link.send(flit)
    engine.run()  # every corrupted or dropped copy is retransmitted
    with pytest.raises(DuplicateFlitError, match="packet 1"):
        link.send(flits[-1])
        engine.run()


def _send_segment_twice(faulted):
    engine = Engine()
    link = _counting_link(engine, faulted)
    (request,) = _staged(PacketType.READ_REQ, pid=1)
    link.send(request)
    engine.run()
    (parent,) = _staged(PacketType.WRITE_RSP, pid=2)
    parent.absorb(request)  # an upstream bug: the request goes out again
    with pytest.raises(DuplicateFlitError, match="packet 1"):
        link.send(parent)
        engine.run()


def test_a_flit_sent_twice_raises():
    _send_twice(faulted=False)


def test_a_stitched_segment_sent_twice_raises():
    _send_segment_twice(faulted=False)


def test_a_flit_sent_twice_on_a_faulted_link_raises():
    _send_twice(faulted=True)


def test_a_stitched_segment_sent_twice_on_a_faulted_link_raises():
    _send_segment_twice(faulted=True)
