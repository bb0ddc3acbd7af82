"""Counter-based fault RNG: order independence is the whole point."""

import pytest

from repro.faults.config import FaultConfig, FlapWindow
from repro.faults.process import (
    FATE_CORRUPT,
    FATE_DROP,
    FATE_OK,
    LinkFaultProcess,
)
from repro.faults.rng import fault_hash, mix64, probability_threshold, string_salt
from repro.network.flit import segment_packet
from repro.network.packet import Packet, PacketType

_MASK64 = (1 << 64) - 1


def _flit(
    addr=0x1000, inject_cycle=5, src=0, dst=2, ptype=PacketType.READ_RSP, pid=-1
):
    packet = Packet(ptype=ptype, src_gpu=src, dst_gpu=dst, addr=addr, pid=pid)
    packet.inject_cycle = inject_cycle
    flit = segment_packet(packet, 16)[0]
    flit.fid = pid
    return flit


def test_mix64_is_deterministic_and_64_bit():
    assert mix64(1, 2) == mix64(1, 2)
    assert 0 <= mix64(123456789, 987654321) <= _MASK64
    assert mix64(1, 2) != mix64(2, 1)


def test_fault_hash_depends_on_every_value():
    base = fault_hash(7, 1, 2, 3)
    assert fault_hash(7, 1, 2, 3) == base
    assert fault_hash(8, 1, 2, 3) != base
    assert fault_hash(7, 1, 2, 4) != base
    assert fault_hash(7, 1, 2) != base


def test_string_salt_stable():
    assert string_salt("switch0->switch1") == string_salt("switch0->switch1")
    assert string_salt("switch0->switch1") != string_salt("switch1->switch0")


def test_probability_threshold_bounds():
    assert probability_threshold(0.0) == 0
    assert probability_threshold(1.0) == 1 << 64
    assert probability_threshold(-0.5) == 0
    half = probability_threshold(0.5)
    assert 0 < half < (1 << 64)
    assert probability_threshold(0.25) < half


def test_zero_rates_always_ok():
    process = LinkFaultProcess(FaultConfig(), "switch0->switch1", 16)
    for attempt in range(4):
        assert process.fate(_flit(), attempt) == FATE_OK


def test_fate_keyed_on_content_not_identity():
    """Two flits with identical content (different fid/pid) share a fate
    — the property that lets a retry clone's fresh IDs leave its fate to
    its content."""
    config = FaultConfig(ber=1e-3, drop_rate=0.05, seed=3)
    process = LinkFaultProcess(config, "switch0->switch1", 16)
    for addr in range(0, 64 * 200, 64):
        a, b = _flit(addr=addr, pid=2 * addr), _flit(addr=addr, pid=2 * addr + 1)
        assert a.fid != b.fid and a.packet.pid != b.packet.pid
        assert process.fate(a, 0) == process.fate(b, 0)


def test_fate_varies_with_content_and_link():
    config = FaultConfig(drop_rate=0.5, seed=1)
    one = LinkFaultProcess(config, "switch0->switch1", 16)
    other = LinkFaultProcess(config, "switch1->switch0", 16)
    fates_one = [one.fate(_flit(addr=64 * i), 0) for i in range(64)]
    fates_other = [other.fate(_flit(addr=64 * i), 0) for i in range(64)]
    assert FATE_DROP in fates_one and FATE_OK in fates_one
    assert fates_one != fates_other


def test_retransmission_redraws_fate():
    config = FaultConfig(drop_rate=0.5, seed=2)
    process = LinkFaultProcess(config, "switch0->switch1", 16)
    flit = _flit()
    fates = {process.fate(flit, attempt) for attempt in range(32)}
    assert FATE_DROP in fates and FATE_OK in fates


def test_corruption_scales_with_flit_size():
    config = FaultConfig(ber=1e-4, seed=0)
    small = LinkFaultProcess(config, "l", 16)
    large = LinkFaultProcess(config, "l", 256)
    assert small._t_corrupt < large._t_corrupt


def test_regime_edges_shape():
    config = FaultConfig(
        flaps=(FlapWindow(100, 200, 0.25), FlapWindow(500, 600, 0.5))
    )
    process = LinkFaultProcess(config, "l", 16)
    edges = process.regime_edges(16.0)
    assert [e[0] for e in edges] == [100, 200, 500, 600]
    assert [e[3] for e in edges] == [True, False, True, False]
    # degraded rate is exactly bpc * factor as an integer ratio
    cycle, num, den, _ = edges[0]
    assert num / den == pytest.approx(4.0)
    assert edges[1][1] / edges[1][2] == pytest.approx(16.0)
