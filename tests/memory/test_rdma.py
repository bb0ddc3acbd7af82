"""Tests for the RDMA engine using a loopback network stub."""

import pytest

from repro.memory.rdma import RdmaEngine
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats

CLUSTER_OF = lambda gpu: gpu // 2  # noqa: E731 - 4 GPUs, 2 clusters


class _FakeL2:
    """Services requests after a fixed delay."""

    def __init__(self, engine, delay=10):
        self.engine = engine
        self.delay = delay
        self.requests = []

    def request(self, addr, nbytes, is_write, callback):
        self.requests.append((addr, nbytes, is_write))
        self.engine.schedule(self.delay, callback)


def _pair(eng, delay=10, network_delay=20):
    """Two RDMA engines joined by a fixed-latency 'network'."""
    stats = RunStats()
    a = RdmaEngine(eng, "rdma0", 0, CLUSTER_OF, stats)
    b = RdmaEngine(eng, "rdma2", 2, CLUSTER_OF, stats)
    engines = {0: a, 2: b}

    def deliver(packet):
        eng.schedule(network_delay, engines[packet.dst_gpu].receive_packet, packet)

    l2a, l2b = _FakeL2(eng, delay), _FakeL2(eng, delay)
    a.attach(inject=deliver, l2_request=l2a.request)
    b.attach(inject=deliver, l2_request=l2b.request)
    return a, b, l2a, l2b, stats


def test_read_round_trip():
    eng = Engine()
    a, b, l2a, l2b, stats = _pair(eng)
    got = []
    a.remote_read(2, 0x1000, bytes_needed=8, sector_offset=0, on_complete=got.append)
    eng.run()
    assert len(got) == 1
    rsp = got[0]
    assert rsp.ptype is PacketType.READ_RSP
    assert rsp.payload_bytes == 64
    assert rsp.addr == 0x1000
    assert l2b.requests == [(0x1000, 64, False)]
    # latency = 2 network hops + L2 delay
    assert stats.remote_read_latency_inter.count == 1
    assert stats.remote_read_latency_inter.mean() == 50


def test_read_latency_classified_by_cluster():
    eng = Engine()
    stats = RunStats()
    a = RdmaEngine(eng, "rdma0", 0, CLUSTER_OF, stats)
    peer = RdmaEngine(eng, "rdma1", 1, CLUSTER_OF, stats)
    engines = {0: a, 1: peer}
    deliver = lambda p: eng.schedule(5, engines[p.dst_gpu].receive_packet, p)  # noqa: E731
    l2 = _FakeL2(eng)
    a.attach(inject=deliver, l2_request=l2.request)
    peer.attach(inject=deliver, l2_request=l2.request)
    a.remote_read(1, 0x0, 8, 0, on_complete=lambda p: None)
    eng.run()
    assert stats.remote_read_latency_intra.count == 1
    assert stats.remote_read_latency_inter.count == 0


def test_trim_bits_copied_to_response():
    eng = Engine()
    a, b, _, _, _ = _pair(eng)
    got = []
    a.remote_read(
        2, 0x40, bytes_needed=8, sector_offset=3,
        on_complete=got.append, trim_allowed=True,
    )
    eng.run()
    rsp = got[0]
    assert rsp.trim_allowed
    assert rsp.bytes_needed == 8
    assert rsp.sector_offset == 3


def test_sector_fetch_returns_only_requested_sectors():
    eng = Engine()
    a, b, _, _, _ = _pair(eng)
    got = []
    a.remote_read(
        2, 0x40, bytes_needed=8, sector_offset=0, on_complete=got.append,
        sector_fetch=True, fetch_sector_mask=0b0011,
    )
    eng.run()
    rsp = got[0]
    assert rsp.payload_bytes == 32
    assert rsp.filled_sector_mask == 0b0011


def test_write_acknowledged():
    eng = Engine()
    a, b, _, l2b, _ = _pair(eng)
    a.remote_write(2, 0x80)
    assert a.outstanding_writes == 1
    eng.run()
    assert a.outstanding_writes == 0
    assert l2b.requests == [(0x80, 64, True)]


def test_pt_read_round_trip():
    eng = Engine()
    a, b, _, l2b, _ = _pair(eng)
    done = []
    a.remote_pt_read(2, 0x1238, on_complete=lambda: done.append(eng.now))
    eng.run()
    assert done == [50]
    assert l2b.requests == [(0x1238, 8, False)]


def test_unattached_engine_raises():
    eng = Engine()
    rdma = RdmaEngine(eng, "r", 0, CLUSTER_OF, RunStats())
    with pytest.raises(RuntimeError):
        rdma.remote_write(1, 0x0)


def test_counters():
    eng = Engine()
    a, b, _, _, _ = _pair(eng)
    a.remote_read(2, 0x0, 8, 0, on_complete=lambda p: None)
    a.remote_write(2, 0x40)
    eng.run()
    assert a.requests_sent == 2
    assert b.requests_served == 2
    assert a.responses_received == 2


def test_response_with_no_outstanding_tag_raises():
    eng = Engine()
    a, b, _l2a, _l2b, _stats = _pair(eng)
    a.remote_write(2, 0x40)
    eng.run()
    assert a.outstanding_writes == 0 and a._outstanding == {}
    # fault-free, nothing answers twice: a stray response is a bug
    stray = Packet(ptype=PacketType.WRITE_RSP, src_gpu=2, dst_gpu=0, tag=0)
    with pytest.raises(RuntimeError, match=r"rdma0: .* carries tag 0"):
        a.receive_packet(stray)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_requester_tables_drain_on_the_quick_smoke_points(n_shards):
    from repro.bench.smoke import smoke_campaign
    from repro.campaign.spec import parse_campaign
    from repro.shard.build import ShardingOptions, build_node
    from repro.workloads.registry import get_workload

    sharding = ShardingOptions(n_shards, parallel=False) if n_shards > 1 else None
    for point in parse_campaign(smoke_campaign(quick=True)).points:
        config = point.system
        node = build_node(config, point.netcrafter, point.seed, sharding)
        node.load(
            get_workload(point.workload).build(
                n_gpus=config.n_gpus, scale=point.scale, seed=point.seed
            )
        )
        node.run()
        if sharding is None:
            gpus = list(node.gpus.values())
        else:
            gpus = [gpu for h in node._handles for gpu in h.shard.gpus.values()]
        assert len(gpus) == config.n_gpus
        assert sum(gpu.rdma._next_tag for gpu in gpus) > 0
        assert all(gpu.rdma._outstanding == {} for gpu in gpus), point
