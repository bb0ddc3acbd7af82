"""Tests for the GPU assembly's wiring and hooks."""

import pytest

from repro.config import SystemConfig
from repro.gpu.gpu import Gpu
from repro.network.link import PacketLink
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats
from repro.vm.page_table import PageTable
from repro.vm.placement import AddressSpace


def _gpu(engine, gpu_id=0, config=None):
    config = config or SystemConfig.default()
    space = AddressSpace(config.n_gpus)
    table = PageTable(space)
    return Gpu(engine, f"gpu{gpu_id}", gpu_id, config, RunStats(), space, table), space


def test_inject_without_uplink_raises():
    eng = Engine()
    gpu, _ = _gpu(eng)
    with pytest.raises(RuntimeError, match="no uplink"):
        gpu.inject_packet(Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=1))


def test_inject_retries_on_backpressure():
    eng = Engine()
    gpu, _ = _gpu(eng)
    delivered = []
    link = PacketLink(
        eng, "up", 16.0, 0, 16, sink=delivered.append, buffer_entries=1
    )
    gpu.attach_uplink(link)
    for _ in range(3):
        gpu.inject_packet(Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=1))
    eng.run()
    assert len(delivered) == 3


def test_local_pte_access_goes_to_own_l2():
    eng = Engine()
    gpu, space = _gpu(eng)
    done = []
    addr = space.alloc_frame(0)
    gpu._pte_access(addr, 0, lambda: done.append(eng.now))
    eng.run()
    assert done and done[0] >= gpu.config.l2_latency


def test_remote_pte_access_goes_via_rdma():
    eng = Engine()
    gpu, space = _gpu(eng)
    sent = []
    gpu.rdma._inject = sent.append  # intercept the network
    addr = space.alloc_frame(2)
    gpu._pte_access(addr, 2, lambda: None)
    assert len(sent) == 1
    assert sent[0].ptype is PacketType.PT_REQ
    assert sent[0].dst_gpu == 2


def test_cu_count_matches_config():
    eng = Engine()
    cfg = SystemConfig.default().with_overrides(cus_per_gpu=3)
    gpu, _ = _gpu(eng, config=cfg)
    assert len(gpu.cus) == 3


def test_directory_absent_under_software_coherence():
    eng = Engine()
    gpu, _ = _gpu(eng)
    assert gpu.directory is None
    # hooks are safe no-ops
    gpu.record_sharer(0x40, 1)
    gpu.coherence_write(0x40, 1)


def test_directory_present_under_hardware_coherence():
    eng = Engine()
    cfg = SystemConfig.default().with_overrides(coherence="hardware")
    gpu, _ = _gpu(eng, config=cfg)
    assert gpu.directory is not None
    gpu.record_sharer(0x40, 2)
    assert gpu.directory.sharers_of(0x40) == {2}


def test_invalidate_line_clears_all_cus():
    eng = Engine()
    gpu, _ = _gpu(eng)
    for cu in gpu.cus:
        cu.l1.fill(0x1000)
    gpu.invalidate_line(0x1000)
    for cu in gpu.cus:
        assert cu.l1.probe(0x1000) is None


def test_home_and_cluster_helpers():
    eng = Engine()
    gpu, space = _gpu(eng)
    addr = space.alloc_frame(3)
    assert gpu.address_space.home_of(addr) == 3
    assert gpu.cluster_of(3) == 1
