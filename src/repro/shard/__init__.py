"""Cluster-sharded parallel simulation with conservative lookahead.

The inter-cluster links are the slowest part of the Figure 2 node: a
flit sent at cycle ``t`` cannot arrive at a remote cluster before
``t + 1 + inter_link_latency``.  That latency is a *conservative
lookahead* window: each cluster (plus its GPUs, switch, and egress
controllers) can be simulated independently for up to ``W`` cycles
beyond the global frontier without missing an incoming event, as long
as cross-cluster flits are exchanged at window boundaries.

:class:`~repro.shard.coordinator.ShardedSystem` exploits this to run a
node as ``n_shards`` single-engine shards (contiguous cluster ranges),
either round-robin in one process (*sequential-windowed*) or as
persistent worker processes (*process-parallel*).  Both modes share one
transport — the verb protocol of :func:`repro.shard.worker.serve` with
column-encoded :class:`~repro.shard.mailbox.MailBatch` mail — served
in-process or over a pipe.  Both produce ``RunResult`` payloads
byte-identical to
:class:`~repro.gpu.system.MultiGpuSystem` — the digest gate in
:mod:`repro.bench.smoke` checks exactly that.
"""

from repro.shard.coordinator import ShardedSystem
from repro.shard.mailbox import (
    BoundaryFlitLink,
    DuplicateDeliveryError,
    LateDeliveryError,
    MailItem,
    Mailbox,
)
from repro.shard.partition import ShardPlan

__all__ = [
    "BoundaryFlitLink",
    "DuplicateDeliveryError",
    "LateDeliveryError",
    "MailItem",
    "Mailbox",
    "ShardPlan",
    "ShardedSystem",
]
