"""Deterministic fault injection and link reliability (``repro.faults``).

The non-uniform inter-cluster links NetCrafter targets are exactly where
real fabrics spend hardware on error detection and recovery, so this
subsystem models both halves:

* **fault processes** — per-flit transient corruption and drop on the
  inter-cluster links, drawn from a counter-based hash RNG keyed on
  stable packet content rather than call order, plus scheduled
  bandwidth-degradation windows (link flaps);
* **reliability layer** — a modeled CRC check (decided by the sending
  link, which knows each transmission's fate), a sender-side
  retransmit path with NACK/timeout pacing, and an RDMA-level
  timeout/retry backstop with capped exponential backoff.

Determinism is the design center.  Fault decisions are *pure functions*
of ``(seed, link name, packet content, flit index, attempt)``
(:mod:`repro.faults.rng`), never of RNG call order, so the exact same
faults fire under single-engine, sequential-windowed, and
process-parallel sharded execution — the property the shard-equivalence
tests pin down.  When :attr:`FaultConfig.active` is false nothing is
attached and the simulator is byte-identical to a build without this
package (the digest-discipline tests pin that too).

Layering: modules in this package never import :mod:`repro.config` or
:mod:`repro.network` (``repro.config`` embeds :class:`FaultConfig`, so
an upward import would cycle); the attach helper is duck-typed over the
built topology instead.
"""

from repro.faults.config import FaultConfig, FlapWindow
from repro.faults.layer import attach_fault_layer
from repro.faults.process import (
    FATE_CORRUPT,
    FATE_DROP,
    FATE_OK,
    LinkFaultProcess,
)
from repro.faults.rng import fault_hash, mix64, probability_threshold

__all__ = [
    "FATE_CORRUPT",
    "FATE_DROP",
    "FATE_OK",
    "FaultConfig",
    "FlapWindow",
    "LinkFaultProcess",
    "attach_fault_layer",
    "fault_hash",
    "mix64",
    "probability_threshold",
]
