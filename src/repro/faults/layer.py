"""Wiring: attach fault processes and the reliability layer to a system.

Called by :class:`~repro.gpu.system.MultiGpuSystem` and
:class:`~repro.shard.shard_system.ShardSystem` at build time, only when
``config.faults.active`` — a disabled fault config leaves every hot path
untouched (class-attribute ``None`` defaults, no per-flit overhead).
The CRC check needs no attachment of its own: the sending link decides
it, since it draws each transmission's fate.

Duck-typed on purpose: this module must not import ``repro.network`` or
``repro.config`` (see the package docstring), so it only calls the
``attach_*`` methods the components expose.  In sharded execution each
shard attaches its own slice — the outgoing halves of its inter-cluster
links (boundary links included) and its owned GPUs' RDMA engines — so
every fault event is counted on exactly one shard and the merged
:class:`~repro.stats.collectors.FaultStats` equals the single-engine
totals.
"""

from __future__ import annotations

from typing import Iterable

from repro.faults.config import FaultConfig
from repro.faults.process import LinkFaultProcess
from repro.stats.collectors import FaultStats, RunStats


def attach_fault_layer(
    config: FaultConfig,
    *,
    inter_links: Iterable,
    rdma_engines: Iterable,
    stats: RunStats,
    flit_size: int,
) -> FaultStats:
    """Attach fault processes + reliability machinery; returns the stats.

    ``inter_links`` are the directed inter-cluster ``FlitLink``\\ s (the
    only fault-injected hop, which also decide the CRC check) and
    ``rdma_engines`` the per-GPU requesters that arm the timeout/retry
    backstop.
    """
    if stats.faults is None:
        stats.faults = FaultStats()
    fault_stats = stats.faults
    for link in inter_links:
        link.attach_faults(
            LinkFaultProcess(config, link.name, flit_size), fault_stats
        )
    for rdma in rdma_engines:
        rdma.attach_faults(config, fault_stats)
    return fault_stats
