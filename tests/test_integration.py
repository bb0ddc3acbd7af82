"""Cross-module integration invariants.

These run whole workloads through whole systems and check conservation
properties that no single unit test can see: every request is answered,
every flit is accounted for, trimming/stitching never lose data, and
NetCrafter variants agree with the baseline on *what* was computed (the
same memory operations complete) while differing only in timing.
"""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.workloads.base import Scale
from repro.workloads.registry import all_workload_names, get_workload

SCALE = Scale.tiny()

CONFIG_MATRIX = [
    ("baseline", None, NetCrafterConfig.baseline()),
    ("stitch", None, NetCrafterConfig.stitching_only()),
    ("stitch_sfp", None, NetCrafterConfig.stitching_with_selective_pooling(32)),
    ("stitch_fp", None, NetCrafterConfig.stitching_with_pooling(32)),
    ("trim", None, NetCrafterConfig.trimming_only()),
    ("seq", None, NetCrafterConfig.sequencing_only()),
    ("full", None, NetCrafterConfig.full()),
    ("full_rr", None, NetCrafterConfig.full().with_overrides(scheduler="rr")),
    ("sector", SystemConfig.sector_cache_baseline(), NetCrafterConfig.baseline()),
    ("ideal", SystemConfig.ideal(), NetCrafterConfig.baseline()),
    ("flit8", SystemConfig.default().with_overrides(flit_size=8), NetCrafterConfig.full()),
]


def _build(workload_name, system_cfg, nc_cfg, seed=0):
    system_cfg = system_cfg or SystemConfig.default()
    trace = get_workload(workload_name).build(
        n_gpus=system_cfg.n_gpus, scale=SCALE, seed=seed
    )
    system = MultiGpuSystem(config=system_cfg, netcrafter=nc_cfg, seed=seed)
    system.load(trace)
    return system, trace


def _run(workload_name, system_cfg, nc_cfg, seed=0):
    system, trace = _build(workload_name, system_cfg, nc_cfg, seed)
    result = system.run()
    return result, system, trace


def _record_egress_packets(system):
    """Every packet an egress controller accepts, appended as it arrives."""
    accepted = []
    for controller in system.topology.controllers:
        def accept(packet, _accept=controller.accept_packet):
            accepted.append(packet)
            _accept(packet)

        controller.accept_packet = accept
    return accepted


@pytest.mark.parametrize("label,sys_cfg,nc_cfg", CONFIG_MATRIX)
def test_all_work_completes_under_every_config(label, sys_cfg, nc_cfg):
    system, trace = _build("gups", sys_cfg, nc_cfg)
    accepted = _record_egress_packets(system)
    result = system.run()
    assert result.stats.mem_ops == trace.total_accesses()
    assert result.stats.finish_cycle is not None
    for gpu in system.gpus.values():
        assert gpu.rdma.outstanding_writes == 0
        assert gpu.rdma._outstanding == {}
        assert gpu.gmmu._walkers_busy == 0
        assert gpu.gmmu.walks_queued == 0
    # no packet is left partially sent: every packet staged at an egress
    # had each of its flits carried across the link
    assert accepted
    assert [p.pid for p in accepted if p._unsent] == []


@pytest.mark.parametrize("label,sys_cfg,nc_cfg", CONFIG_MATRIX)
def test_flit_conservation_at_egress(label, sys_cfg, nc_cfg):
    """Every flit entering a controller leaves as a parent or stitched."""
    result, system, _ = _run("spmv", sys_cfg, nc_cfg)
    assert result.flits_entered == result.inter_flits_sent + result.flits_absorbed
    for controller in system.topology.controllers:
        assert len(controller.queue) == 0
        assert not controller._pending


@pytest.mark.parametrize("label,sys_cfg,nc_cfg", CONFIG_MATRIX)
def test_analytic_traffic_verification(label, sys_cfg, nc_cfg):
    """Controller packet counts match the memory system's predictions."""
    from repro.stats.verification import verify_traffic

    result, system, _ = _run("mvt", sys_cfg, nc_cfg)
    assert verify_traffic(system, result) == []


@pytest.mark.parametrize("workload", all_workload_names())
def test_every_workload_completes_under_full_netcrafter(workload):
    result, _system, trace = _run(workload, None, NetCrafterConfig.full())
    assert result.stats.mem_ops == trace.total_accesses()
    assert result.cycles > 0


@pytest.mark.parametrize("workload", ["gups", "mm2", "vgg16"])
def test_netcrafter_preserves_work_not_timing(workload):
    """Functional equivalence: the same ops, reads, writes and pages are
    processed under baseline and NetCrafter; only cycles differ."""
    base, _, _ = _run(workload, None, NetCrafterConfig.baseline())
    crafted, _, _ = _run(workload, None, NetCrafterConfig.full())
    assert base.stats.mem_ops == crafted.stats.mem_ops
    assert base.stats.reads == crafted.stats.reads
    assert base.stats.writes == crafted.stats.writes
    assert base.stats.kernel_count == crafted.stats.kernel_count


def test_trimming_reduces_wire_bytes_never_work():
    base, _, _ = _run("gups", None, NetCrafterConfig.baseline())
    trim, _, _ = _run("gups", None, NetCrafterConfig.trimming_only())
    assert trim.inter_wire_bytes < base.inter_wire_bytes
    assert trim.stats.mem_ops == base.stats.mem_ops


def test_stitching_reduces_flits_never_bytes_required():
    base, _, _ = _run("spmv", None, NetCrafterConfig.baseline())
    stitched, _, _ = _run("spmv", None, NetCrafterConfig.stitching_only())
    assert stitched.inter_flits_sent < base.inter_flits_sent
    # useful (payload) bytes cannot shrink below what stitching saves in
    # padding: required traffic is conserved
    assert stitched.inter_useful_bytes >= base.inter_useful_bytes - 1


def test_ideal_network_is_never_slower():
    for workload in ("gups", "mis", "bs"):
        base, _, _ = _run(workload, None, NetCrafterConfig.baseline())
        ideal, _, _ = _run(workload, SystemConfig.ideal(), NetCrafterConfig.baseline())
        assert ideal.cycles <= base.cycles * 1.02


def test_deterministic_across_repeats():
    runs = [
        _run("mvt", None, NetCrafterConfig.full(), seed=5)[0].cycles
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_rr_scheduler_is_a_valid_alternative():
    """The paper-literal RR scheduler completes identically much work."""
    age, _, trace = _run("atax", None, NetCrafterConfig.full())
    rr, _, _ = _run(
        "atax", None, NetCrafterConfig.full().with_overrides(scheduler="rr")
    )
    assert rr.stats.mem_ops == age.stats.mem_ops == trace.total_accesses()


def test_three_cluster_topology_runs():
    cfg = SystemConfig.default().with_overrides(n_clusters=3, gpus_per_cluster=2)
    result, system, trace = _run("gups", cfg, NetCrafterConfig.full())
    assert result.stats.mem_ops == trace.total_accesses()
    assert result.inter_links == 6


def test_eight_byte_flits_conserve_packets():
    cfg = SystemConfig.default().with_overrides(flit_size=8)
    result, system, trace = _run("gups", cfg, NetCrafterConfig.stitching_only())
    assert result.stats.mem_ops == trace.total_accesses()
    assert result.flits_entered == result.inter_flits_sent + result.flits_absorbed
