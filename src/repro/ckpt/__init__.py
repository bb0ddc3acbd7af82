"""Checkpoint/resume: snapshots at any cycle, indistinguishable from an
uninterrupted run.

Long sweeps are single-shot simulations; a preemption used to throw the
whole run away.  This package serializes a running
:class:`~repro.gpu.system.MultiGpuSystem` or
:class:`~repro.shard.coordinator.ShardedSystem` every ``every``
simulated cycles — the engine's pending events, cluster queues, pooling
timers, TLB/sector-cache/MSHR contents, each staged packet's
unsent-flit count, the packet/flit ID cursors of the RDMA engines and
egress controllers, every stats/obs counter and, sharded, the
coordinator's window-loop state with its undelivered mail — into a
versioned, fingerprint-stamped snapshot file, and resumes it to a
**byte-identical** final result.

Why a cut between engine runs is exact: a snapshot is taken only while
no engine is running — the single engine between ``engine.run(until=cut)``
slices, the sharded coordinator at the top of its window loop, between
verbs — so no event is half done and the pending set is the whole
future of the run.  ``engine.run(until=c)`` followed by ``engine.run()``
dispatches exactly the events, keys and order of one ``engine.run()``,
and the coordinator's next window depends only on the state it saves,
so the restored run replays the remaining schedule event for event.
The whole graph pickles: requests are requester-table tags (plain ints
on the packet, the table in the requesting RDMA engine) and every
continuation on the event path is a bound method or a
``functools.partial`` over one — which is what lets a fault-injected
run, with retry clones in flight, checkpoint too.  Saving schedules no
events, so a checkpointed run's event stream and digest are identical
to an unhooked run's.

Snapshot file layout (version :data:`SNAPSHOT_FORMAT_VERSION`)::

    REPROCKPT\\n            magic
    {header JSON}\\n        format, fingerprint, mode, cycle
    <pickle payload>       the serialized system state

The header is validated *before* the payload is unpickled: a wrong
magic/version raises :class:`SnapshotFormatError`, and a fingerprint
that does not match the run configuration being resumed raises
:class:`FingerprintMismatchError` — resuming a snapshot against a
different config/seed/workload/shard-plan fails loudly, never silently
producing a chimera run.

Fault injection needs no extra state: fault fates are drawn from a pure
counter-based hash keyed on (link, packet content, attempt), so the
restored run redraws exactly the fates the uninterrupted run would have.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.atomicio import atomic_write_bytes, sweep_orphans

if TYPE_CHECKING:
    from repro.shard.build import ShardingOptions

#: bump whenever the snapshot payload layout or the serialized state of
#: any simulator class changes incompatibly
SNAPSHOT_FORMAT_VERSION = 11

_MAGIC = b"REPROCKPT\n"


class CheckpointError(RuntimeError):
    """Base error for snapshot save/load/resume problems."""


class SnapshotFormatError(CheckpointError):
    """The file is not a snapshot this version can read (bad magic,
    truncated header, or an incompatible format version)."""


class FingerprintMismatchError(CheckpointError):
    """The snapshot was taken under a different run configuration than
    the one being resumed (config, seed, workload shape, or shard plan)."""


# -- fingerprinting ----------------------------------------------------------


def run_fingerprint(
    config,
    netcrafter,
    seed: int,
    workload,
    n_shards: int = 1,
) -> str:
    """Content hash of everything a resumed run must agree on.

    Covers the full system/netcrafter configuration content, the seed,
    the workload's shape (name, kernel count, total wavefronts — the
    trace itself rides inside the snapshot), and the shard plan.  The
    process-parallel flag is deliberately excluded: sequential-windowed
    and process-parallel runs share identical shard state, so a snapshot
    from one drive mode may resume under the other.
    """
    import enum
    import hashlib

    def _default(obj: object) -> object:
        if isinstance(obj, enum.Enum):
            return obj.value
        raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")

    descriptor = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "system": asdict(config),
        "netcrafter": asdict(netcrafter),
        "seed": seed,
        "workload": workload.name,
        "kernels": len(workload.kernels),
        "wavefronts": sum(k.wavefront_count() for k in workload.kernels),
        "n_shards": n_shards,
    }
    blob = json.dumps(descriptor, sort_keys=True, default=_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- snapshot file I/O -------------------------------------------------------


def write_snapshot(
    path: Union[str, Path],
    *,
    fingerprint: str,
    mode: str,
    cycle: int,
    payload: object,
) -> None:
    """Serialize and atomically publish one snapshot file.

    ``cycle`` is the simulated cycle the run was cut at.  The write is
    atomic and durable (temp + fsync + rename), so a crash
    mid-checkpoint leaves the previous snapshot intact, never a torn
    file.
    """
    header = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "mode": mode,
        "cycle": cycle,
    }
    blob = (
        _MAGIC
        + json.dumps(header, sort_keys=True).encode("utf-8")
        + b"\n"
        + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )
    atomic_write_bytes(path, blob)


def read_header(path: Union[str, Path]) -> Dict[str, object]:
    """Parse and validate a snapshot's header without unpickling state."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic != _MAGIC:
                raise SnapshotFormatError(
                    f"{path} is not a repro checkpoint (bad magic)"
                )
            header_line = handle.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"{path} has a corrupt snapshot header"
        ) from exc
    if header.get("format") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path} is snapshot format {header.get('format')!r}, "
            f"this version reads {SNAPSHOT_FORMAT_VERSION}"
        )
    return header


def read_snapshot(
    path: Union[str, Path], expected_fingerprint: Optional[str] = None
) -> tuple:
    """Load ``(header, payload)``, enforcing format and fingerprint.

    The fingerprint check happens on the header, *before* any payload
    bytes are unpickled.
    """
    path = Path(path)
    header = read_header(path)
    if (
        expected_fingerprint is not None
        and header["fingerprint"] != expected_fingerprint
    ):
        raise FingerprintMismatchError(
            f"snapshot {path} was taken under a different run "
            f"configuration (snapshot fingerprint "
            f"{header['fingerprint'][:12]}…, resuming run "
            f"{expected_fingerprint[:12]}…); refusing to resume"
        )
    with open(path, "rb") as handle:
        handle.read(len(_MAGIC))
        handle.readline()
        payload = pickle.loads(handle.read())
    return header, payload


# -- the checkpoint hook -----------------------------------------------------


@dataclass
class Checkpointer:
    """Snapshot hook for both execution front ends.

    Installed as the ``_ckpt_hook`` of a
    :class:`~repro.gpu.system.MultiGpuSystem` or
    :class:`~repro.shard.coordinator.ShardedSystem`.  The run is cut at
    every multiple of ``every`` simulated cycles, between engine runs,
    and its state is published to ``path`` — one file, last cut wins,
    so ``path`` always holds the latest resumable state.  Saving
    schedules no events and mutates no simulator state, so hooked and
    unhooked runs are byte-identical.
    """

    path: Union[str, Path]
    fingerprint: str
    #: snapshot period in simulated cycles
    every: int
    #: cycles at which a snapshot was actually written (observability
    #: for tests/CLI; not part of the snapshot contract)
    saved_cycles: List[int] = field(default_factory=list)

    def next_cut(self, cycle: int) -> int:
        """The first cut after ``cycle``."""
        return (cycle // self.every + 1) * self.every

    def save(self, mode: str, cycle: int, payload: object) -> None:
        """Publish the run's state at ``cycle``; ``mode`` names the
        payload kind (``single`` or ``sharded``)."""
        write_snapshot(
            self.path,
            fingerprint=self.fingerprint,
            mode=mode,
            cycle=cycle,
            payload=payload,
        )
        self.saved_cycles.append(cycle)
        self.after_save(cycle)

    def after_save(self, cycle: int) -> None:
        """Post-publish extension point (the kill-and-resume smoke uses
        a subclass that hard-kills the process here)."""


# -- resume ------------------------------------------------------------------


def resume(
    path: Union[str, Path],
    *,
    config,
    netcrafter,
    seed: int,
    workload,
    sharding: Optional[ShardingOptions] = None,
    obs_spec=None,
    checkpointer: Optional[Checkpointer] = None,
):
    """Restore a snapshotted run; returns the node, ready to ``run()``.

    The caller passes the run configuration it *intends* to resume —
    exactly what it would have used to construct the system, with
    ``sharding`` the :class:`~repro.shard.build.ShardingOptions` (or
    ``None`` for the single engine) — and the snapshot's stamped
    fingerprint must match (:class:`FingerprintMismatchError`
    otherwise).  ``checkpointer`` becomes the restored node's hook:
    pass one to keep checkpointing from where the run left off, or
    ``None`` (default) to resume without further snapshots.  The
    restored run keeps the observability instruments it was
    snapshotted with.

    Running the returned node finishes the run with a result
    byte-identical to the uninterrupted run's.
    """
    from repro.shard.build import ShardingOptions, build_node

    # the single engine snapshots as the 1-shard shape
    sharding = sharding or ShardingOptions(parallel=False)
    expected = run_fingerprint(
        config, netcrafter, seed, workload, n_shards=sharding.n_shards
    )
    header, payload = read_snapshot(path, expected_fingerprint=expected)
    # the fingerprint covers n_shards, so after it matches the only
    # remaining ambiguity is n_shards=1 — both a MultiGpuSystem and a
    # 1-shard ShardedSystem produce that fingerprint — and there the
    # header's mode says which payload kind this file holds
    if header["mode"] == "sharded":
        # a sharding plan always builds the sharded front end (a
        # one-shard plan included), matching the payload kind
        node = build_node(config, netcrafter, seed, sharding, obs_spec)
        node.load(workload)
        node.restore(payload)
    elif header["mode"] == "single":
        node = payload["system"]
    else:
        raise SnapshotFormatError(
            f"snapshot {path} has unknown mode {header['mode']!r}"
        )
    node._ckpt_hook = checkpointer
    return node


__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "CheckpointError",
    "SnapshotFormatError",
    "FingerprintMismatchError",
    "Checkpointer",
    "run_fingerprint",
    "write_snapshot",
    "read_header",
    "read_snapshot",
    "resume",
    "sweep_orphans",
]
