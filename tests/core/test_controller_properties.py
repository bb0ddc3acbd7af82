"""Property-based tests: the egress controller never loses or dupes data.

A random stream of packets is pushed through a controller and the link
that completes packets on the sending side, under a random NetCrafter
configuration; every packet must be delivered exactly once with its
payload intact, regardless of stitching, trimming, pooling or priority
decisions.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import NetCrafterConfig, PriorityMode
from repro.core.controller import NetCrafterController
from repro.network.link import FlitLink
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine

packet_types = st.sampled_from(list(PacketType))

configs = st.builds(
    NetCrafterConfig,
    enable_stitching=st.booleans(),
    enable_pooling=st.booleans(),
    selective_pooling=st.booleans(),
    pooling_window=st.sampled_from([16, 32, 64]),
    enable_trimming=st.booleans(),
    enable_sequencing=st.booleans(),
    priority_mode=st.sampled_from(list(PriorityMode)),
    partition_by_type=st.booleans(),
    scheduler=st.sampled_from(["age", "rr"]),
    early_release=st.booleans(),
    pooling_grace=st.sampled_from([0, 8]),
    stitch_search_depth=st.sampled_from([1, 8]),
)

def _completed_into(delivered):
    """A link sink appending each packet a wire flit completes."""

    def sink(flit, done):
        for carried in flit.all_carried_flits():
            if done & 1:
                delivered.append(carried.packet)
            done >>= 1

    return sink


streams = st.lists(
    st.tuples(
        packet_types,
        st.integers(0, 500),   # injection delay
        st.integers(1, 64),    # bytes needed
        st.booleans(),         # trim bits set
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(config=configs, stream=streams, bandwidth=st.sampled_from([16.0, 128.0]))
def test_every_packet_delivered_exactly_once(config, stream, bandwidth):
    eng = Engine()
    delivered = []
    link = FlitLink(eng, "l", bandwidth, latency=4, sink=_completed_into(delivered))
    ctrl = NetCrafterController(eng, "c", link, 16, config, queue_capacity=64)

    sent = []
    for pid, (ptype, delay, needed, trim) in enumerate(stream):
        pkt = Packet(
            ptype=ptype,
            src_gpu=0,
            dst_gpu=2,
            bytes_needed=needed,
            trim_allowed=trim,
            pid=pid,
        )
        sent.append(pkt)
        eng.schedule(delay, ctrl.accept_packet, pkt)
    eng.run(max_events=200_000)

    assert eng.pending_events() == 0, "egress deadlocked"
    assert len(delivered) == len(sent)
    assert {p.pid for p in delivered} == {p.pid for p in sent}
    # conservation at the controller
    assert ctrl.stats.flits_entered == ctrl.stats.flits_sent + ctrl.stats.flits_absorbed
    # trimmed packets still arrive with a coherent (smaller) payload
    for pkt in delivered:
        if pkt.trimmed:
            assert pkt.ptype is PacketType.READ_RSP
            assert pkt.payload_bytes == config.trim_sector_bytes
            assert pkt.original_payload_bytes == 64


@settings(max_examples=30, deadline=None)
@given(stream=streams)
def test_baseline_preserves_fifo_order(stream):
    """With no features the controller is byte-exact FIFO."""
    eng = Engine()
    delivered = []
    link = FlitLink(eng, "l", 16.0, latency=0, sink=_completed_into(delivered))
    ctrl = NetCrafterController(
        eng, "c", link, 16, NetCrafterConfig.baseline(), queue_capacity=1024
    )
    sent = []
    for pid, (ptype, _delay, needed, _trim) in enumerate(stream):
        pkt = Packet(
            ptype=ptype, src_gpu=0, dst_gpu=2, bytes_needed=needed, pid=pid
        )
        sent.append(pkt)
        ctrl.accept_packet(pkt)  # all at cycle 0, in order
    eng.run()
    assert [p.pid for p in delivered] == [p.pid for p in sent]
