"""Unit tests for the link retransmit path and the RDMA backstop."""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.faults.config import FaultConfig, FlapWindow
from repro.faults.process import (
    FATE_CORRUPT,
    FATE_DROP,
    FATE_OK,
    LinkFaultProcess,
)
from repro.gpu.system import MultiGpuSystem
from repro.network.flit import segment_packet
from repro.network.link import FlitLink
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine
from repro.stats.collectors import FaultStats
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

from tests.network.per_flit import staged


class ScriptedProcess:
    """A fault process whose fates are given in advance (unit testing)."""

    def __init__(self, config, fates):
        self.config = config
        self._fates = list(fates)
        self.asked = []

    def fate(self, flit, attempt):
        self.asked.append((flit.fid, attempt))
        return self._fates.pop(0) if self._fates else FATE_OK

    def regime_edges(self, bytes_per_cycle):
        return []


def _harness(config, fates, bytes_per_cycle=16.0, latency=2):
    engine = Engine()
    delivered = []
    link = FlitLink(
        engine,
        "switch0->switch1",
        bytes_per_cycle,
        latency,
        lambda flit, done: delivered.append((engine.now, flit)),
    )
    fstats = FaultStats()
    link.attach_faults(ScriptedProcess(config, fates), fstats)
    return engine, link, fstats, delivered


def _flit(addr=0x40):
    """A staged single-flit packet: a clean copy completes it."""
    packet = Packet(
        ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=2, addr=addr
    )
    packet.inject_cycle = 0
    (flit,) = staged(segment_packet(packet, 16))
    return flit


def test_corrupt_then_retransmit():
    config = FaultConfig(ber=1e-4, crc_latency=4, nack_latency=3)
    engine, link, fstats, delivered = _harness(config, [FATE_CORRUPT, FATE_OK])
    flit = _flit()
    link.send(flit)
    engine.run()

    # the damaged copy fails the receiver's CRC and delivers nothing;
    # the clean retransmission follows after the CRC + NACK round trip
    # (the damaged copy's arrival = ceil(1 flit @ 16 B/cyc) + latency = 3;
    # retry at 3 + crc(4) + nack(3) = 10; redelivery at 10 + 1 + 2 = 13)
    assert delivered == [(13, flit)]
    assert fstats.crc_fail == 1
    assert fstats.crc_ok == 1

    assert fstats.flits_corrupted == 1
    assert fstats.bytes_corrupted == 16
    assert fstats.flits_retransmitted == 1
    assert fstats.flits_abandoned == 0
    # recovery latency runs to the start of the clean transmission
    assert fstats.recovery_latency.count == 1
    assert fstats.recovery_latency.total == 10
    # useful bytes counted exactly once (on the clean copy); wire bytes
    # and flit counts cover both transmissions
    assert link.stats.useful_bytes == flit.useful_payload_bytes
    assert link.stats.wire_bytes == 32
    assert link.stats.flits == 2


def test_drop_then_retransmit():
    config = FaultConfig(drop_rate=0.1, drop_timeout=20)
    engine, link, fstats, delivered = _harness(config, [FATE_DROP, FATE_OK])
    flit = _flit()
    link.send(flit)
    engine.run()

    # nothing arrives for the dropped copy; the retry fires on timeout
    assert len(delivered) == 1
    cycle, arrived = delivered[0]
    assert arrived is flit
    assert cycle == 20 + 1 + 2  # drop_timeout + serialization + latency
    assert fstats.flits_dropped == 1
    assert fstats.flits_retransmitted == 1
    # a drop reaches no CRC check
    assert (fstats.crc_ok, fstats.crc_fail) == (1, 0)
    assert link.stats.useful_bytes == flit.useful_payload_bytes


def test_retry_budget_abandons():
    config = FaultConfig(drop_rate=0.1, max_link_retries=0)
    engine, link, fstats, delivered = _harness(config, [FATE_DROP])
    link.send(_flit())
    engine.run()
    assert delivered == []
    assert fstats.flits_dropped == 1
    assert fstats.flits_abandoned == 1
    assert fstats.flits_retransmitted == 0


def test_conservation_identity_over_many_fates():
    fates = [FATE_DROP, FATE_CORRUPT, FATE_OK] * 5 + [FATE_CORRUPT, FATE_OK]
    config = FaultConfig(ber=1e-4, drop_rate=0.1)
    engine, link, fstats, delivered = _harness(config, list(fates))
    for i in range(4):
        engine.schedule_at(i * 100, link.send, _flit(addr=0x40 * (i + 1)))
    engine.run()
    assert (
        fstats.flits_corrupted + fstats.flits_dropped
        == fstats.flits_retransmitted + fstats.flits_abandoned
    )
    # only the clean copies arrive; every corrupted copy fails its CRC
    assert len(delivered) == fstats.crc_ok == 4
    assert fstats.crc_fail == fstats.flits_corrupted


def test_flap_window_slows_serialization():
    """Inside a flap window the wire runs at the degraded rate, and the
    extra busy time is tracked separately (bit-exact nominal otherwise)."""
    config = FaultConfig(flaps=(FlapWindow(5, 100, 0.25),))
    engine = Engine()
    delivered = []
    link = FlitLink(
        engine,
        "switch0->switch1",
        16.0,
        2,
        lambda flit, done: delivered.append((engine.now, flit)),
    )
    fstats = FaultStats()
    link.attach_faults(LinkFaultProcess(config, link.name, 16), fstats)

    engine.schedule_at(0, link.send, _flit(addr=0x40))  # nominal regime
    engine.schedule_at(10, link.send, _flit(addr=0x80))  # degraded regime
    engine.run()

    assert [cycle for cycle, _ in delivered] == [
        3,  # ceil(0 + 16/16) + 2
        16,  # ceil(10 + 16/4) + 2: quarter bandwidth inside the window
    ]
    assert fstats.degraded_flits == 1
    assert link.stats.busy_extra == pytest.approx(3.0)  # 4 - 1 cycles
    assert link.stats.busy_cycles == pytest.approx(2.0 + 3.0)


def test_flap_window_restores_nominal_rate():
    config = FaultConfig(flaps=(FlapWindow(5, 20, 0.25),))
    engine = Engine()
    delivered = []
    link = FlitLink(
        engine, "l", 16.0, 2, lambda f, done: delivered.append((engine.now, f))
    )
    link.attach_faults(LinkFaultProcess(config, "l", 16), FaultStats())
    engine.schedule_at(30, link.send, _flit())
    engine.run()
    assert delivered[0][0] == 33  # back to one cycle per flit


def test_rdma_backstop_recovers_abandoned_packets():
    """With link retries off, every faulted flit is lost for good — only
    the end-to-end timeout/retry path can finish the run."""
    faults = FaultConfig(
        ber=5e-4, drop_rate=0.02, seed=3, max_link_retries=0, rdma_timeout=512
    )
    config = SystemConfig.default().with_overrides(faults=faults)
    trace = get_workload("gups").build(
        n_gpus=config.n_gpus, scale=Scale.tiny(), seed=0
    )
    system = MultiGpuSystem(
        config=config, netcrafter=NetCrafterConfig.full(), seed=0
    )
    system.load(trace)
    result = system.run()
    f = result.stats.faults
    assert result.cycles > 0
    assert f.flits_abandoned > 0
    assert f.rdma_retries > 0
    assert f.flits_retransmitted == 0
    assert (
        f.flits_corrupted + f.flits_dropped
        == f.flits_retransmitted + f.flits_abandoned
    )


def test_recovery_is_lossless_end_to_end():
    """A faulty run delivers exactly the payload bytes a fault-free run
    does: corruption and drops cost cycles and wire bytes, never data."""

    def run(faults):
        config = SystemConfig.default().with_overrides(faults=faults)
        trace = get_workload("gups").build(
            n_gpus=config.n_gpus, scale=Scale.tiny(), seed=0
        )
        system = MultiGpuSystem(
            config=config, netcrafter=NetCrafterConfig.full(), seed=0
        )
        system.load(trace)
        return system.run()

    clean = run(FaultConfig())
    faulty = run(
        FaultConfig(
            ber=2e-4,
            drop_rate=0.01,
            flaps=(FlapWindow(200, 900, 0.25),),
            seed=7,
            rdma_timeout=512,
        )
    )
    f = faulty.stats.faults
    assert f.flits_corrupted > 0 and f.flits_dropped > 0
    assert faulty.inter_useful_bytes == clean.inter_useful_bytes
    assert faulty.inter_wire_bytes > clean.inter_wire_bytes
    assert faulty.cycles >= clean.cycles


def test_rdma_duplicate_response_deduped():
    from repro.memory.rdma import RdmaEngine
    from repro.stats.collectors import RunStats

    engine = Engine()
    stats = RunStats()
    rdma = RdmaEngine(engine, "rdma0", 0, lambda gpu: gpu // 2, stats)
    injected = []
    rdma.attach(injected.append, lambda *a: None)
    fstats = FaultStats()
    rdma.attach_faults(FaultConfig(ber=1e-4, rdma_timeout=64), fstats)

    completions = []
    rdma.remote_read(2, 0x40, 64, 0, completions.append)
    engine.run(until=0)
    assert len(injected) == 1
    request = injected[0]

    response = Packet(
        ptype=PacketType.READ_RSP,
        src_gpu=2,
        dst_gpu=0,
        addr=0x40,
        tag=request.tag,
    )
    rdma._complete_response(response)
    assert rdma._outstanding == {}  # the first answer retires the tag
    rdma._complete_response(response)  # the clone's answer arrives late
    assert len(completions) == 1
    assert rdma.responses_received == 1
    assert fstats.rdma_duplicate_responses == 1


def test_rdma_backstop_clone_keeps_the_tag():
    from repro.memory.rdma import RdmaEngine
    from repro.stats.collectors import RunStats

    engine = Engine()
    rdma = RdmaEngine(engine, "rdma0", 0, lambda gpu: gpu // 2, RunStats())
    injected = []
    rdma.attach(injected.append, lambda *a: None)
    fstats = FaultStats()
    rdma.attach_faults(FaultConfig(ber=1e-4, rdma_timeout=16), fstats)
    rdma.remote_read(2, 0x40, 64, 0, lambda packet: None)
    engine.run(until=16)
    original, clone = injected
    assert clone.pid != original.pid and clone.tag == original.tag
    assert fstats.rdma_retries == 1
    rdma._complete_response(
        Packet(ptype=PacketType.READ_RSP, src_gpu=2, dst_gpu=0, tag=clone.tag)
    )
    # the answered request's next timeout finds no table entry: no retry
    engine.run(until=1000)
    assert len(injected) == 2 and fstats.rdma_retries == 1


def test_rdma_backstop_gives_up_eventually():
    from repro.memory.rdma import RdmaEngine
    from repro.stats.collectors import RunStats

    engine = Engine()
    rdma = RdmaEngine(engine, "rdma0", 0, lambda gpu: gpu // 2, RunStats())
    rdma.attach(lambda packet: None, lambda *a: None)  # network eats packets
    rdma.attach_faults(
        FaultConfig(ber=1e-4, rdma_timeout=16, rdma_backoff_cap=32,
                    max_rdma_retries=2),
        FaultStats(),
    )
    rdma.remote_read(2, 0x40, 64, 0, lambda packet: None)
    with pytest.raises(RuntimeError, match="unanswered"):
        engine.run()
