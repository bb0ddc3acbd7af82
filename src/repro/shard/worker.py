"""Shard transport: one verb protocol, served over a pipe or in-process.

A coordinator drives each :class:`~repro.shard.shard_system.ShardSystem`
with small command tuples, answered by :func:`serve` — the only shard
verb dispatcher::

    ("begin",)                        -> ("ok", ShardStatus)
    ("window", until, batches)        -> ("ok", (out_batches, ShardStatus))
    ("launch_window", k, q, until)    -> ("ok", (out_batches, ShardStatus))
    ("close", q)                      -> ("ok", ShardStatus)
    ("finish", q)                     -> ("ok", (SliceHarvest, Observability))
    ("snapshot",)                     -> ("ok", bytes)  # pickled ShardSystem, any window
    ("exit",)                         -> worker terminates

Process-parallel mode runs each shard in its own persistent
``multiprocessing.Process`` (:class:`RemoteShard`), built locally in the
worker from picklable inputs (configs, seed, workload, obs spec).
Sequential-windowed mode (:class:`LocalShard`) calls :func:`serve`
directly, so both modes exchange the same encoded mail.

Commands and replies cross the pipe as explicit ``pickle.dumps``
payloads over ``send_bytes``/``recv_bytes`` (highest protocol), so the
coordinator can count the exact bytes serialized per verb.  Mailbox
traffic travels as :class:`~repro.shard.mailbox.MailBatch` columns:
``batches`` is the sequence of batches destined to this shard and
``out_batches`` maps destination shard index to one encoded batch of
this window's outbox — pickled once here, routed by the coordinator on
the header columns alone, and decoded only by the destination shard.
``launch_window`` is the kernel-boundary launch together with the first
window after it (the post-launch window boundary is deterministic, so
the coordinator needs no intermediate status): one round trip per
boundary.  A :class:`LocalShard` skips only the outer pipe pickling
(and ``exit``); its batches carry the same pickled flit payloads.

Any worker exception is shipped back as ``("error", traceback)`` and
re-raised in the coordinator.

Checkpoint resume hands the worker a shard pickled between windows
(``shard_state``) instead of build inputs; the worker unpickles it
(:func:`~repro.shard.shard_system.open_shard`) and serves the same verb
loop from the restored state.

Nothing in a boundary flit needs translating on the way: a request
carries its requester-table tag as a plain int, and the requester's
completion continuation stays home in its RDMA engine's table.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from typing import Dict, List, Optional

from repro.shard.mailbox import MailBatch, MailItem
from repro.shard.shard_system import ShardObsSpec, ShardSystem, open_shard
from repro.sim.collector import collector_paused
from repro.stats.coord import CoordStats


def _encode_outbox(shard, outbox) -> Dict[int, MailBatch]:
    """Column-encode the outbox per destination shard.

    Pickling happens here, exactly once per destination: one ``dumps``
    over each destination's flit list lets the pickle memo dedupe the
    shared ``Packet``/``StitchSegment`` tuple-state prefix of multi-flit
    packets instead of re-serializing it per flit per hop.
    """
    if not outbox:
        return {}
    shard_of = shard.plan.shard_of_cluster
    groups: Dict[int, List[MailItem]] = {}
    for item in outbox:
        dst = shard_of(item.dst_cluster)
        group = groups.get(dst)
        if group is None:
            groups[dst] = [item]
        else:
            group.append(item)
    return {dst: MailBatch.encode(items) for dst, items in groups.items()}


def serve(shard: ShardSystem, message: tuple):
    """Apply one coordinator command to ``shard``; returns the reply payload.

    The one shard-verb dispatcher: worker processes call it from their
    pipe loop and :class:`LocalShard` calls it in-process, so both drive
    modes run every verb — and every mail batch — through the same code.
    """
    verb = message[0]
    if verb == "window":
        _, until, batches = message
        # one loads per batch, then inject straight off the columns
        flits_per_batch = [pickle.loads(batch.payload) for batch in batches]
        outbox, status = shard.window(until, batches, flits_per_batch)
        return _encode_outbox(shard, outbox), status
    if verb == "launch_window":
        _, kernel_index, q, until = message
        outbox, status = shard.launch_window(kernel_index, q, until)
        return _encode_outbox(shard, outbox), status
    if verb == "begin":
        return shard.begin()
    if verb == "close":
        _, q_final = message
        return shard.close(q_final)
    if verb == "finish":
        _, q_final = message
        return shard.finish(q_final)
    if verb == "snapshot":
        return shard.snapshot_state()
    raise RuntimeError(f"unknown shard command {verb!r}")


def worker_main(
    conn,
    config,
    netcrafter,
    seed: int,
    shard_index: int,
    n_shards: int,
    obs_spec: ShardObsSpec,
    workload,
    shard_state=None,
) -> None:
    """Worker process entry: build the shard, serve commands until exit.

    With ``shard_state`` (checkpoint resume) the shard is restored from
    its pickled snapshot instead of being built fresh.
    """
    proto = pickle.HIGHEST_PROTOCOL
    try:
        # the worker's whole life is one shard's run, which makes no
        # cyclic garbage (repro.sim.collector)
        with collector_paused():
            shard = open_shard(
                config, netcrafter, seed, shard_index, n_shards, obs_spec,
                workload, shard_state,
            )
            while True:
                message = pickle.loads(conn.recv_bytes())
                if message[0] == "exit":
                    conn.close()
                    return
                reply = ("ok", serve(shard, message))
                conn.send_bytes(pickle.dumps(reply, proto))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        return
    except Exception:
        try:
            conn.send_bytes(
                pickle.dumps(("error", traceback.format_exc()), proto)
            )
        except Exception:  # pragma: no cover - parent already gone
            pass


class RemoteShard:
    """Coordinator-side handle for one worker process."""

    #: grace period for a worker to exit on its own before escalation
    EXIT_GRACE_SECONDS = 10.0

    def __init__(
        self,
        config,
        netcrafter,
        seed: int,
        shard_index: int,
        n_shards: int,
        obs_spec: ShardObsSpec,
        workload,
        shard_state=None,
        coord_stats: Optional[CoordStats] = None,
    ) -> None:
        self.coord_stats = coord_stats
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=worker_main,
            args=(
                child,
                config,
                netcrafter,
                seed,
                shard_index,
                n_shards,
                obs_spec,
                workload,
                shard_state,
            ),
            daemon=True,
        )
        self._process.start()
        child.close()

    def start(self, verb: str, *args) -> None:
        blob = pickle.dumps((verb,) + args, protocol=pickle.HIGHEST_PROTOCOL)
        stats = self.coord_stats
        if stats is not None:
            stats.verb_round_trips += 1
            stats.pickle_bytes_out += len(blob)
        self._conn.send_bytes(blob)

    def collect(self):
        stats = self.coord_stats
        if stats is None:
            blob = self._conn.recv_bytes()
        else:
            begin = time.perf_counter()
            blob = self._conn.recv_bytes()
            stats.idle_wait_seconds += time.perf_counter() - begin
            stats.pickle_bytes_in += len(blob)
        kind, payload = pickle.loads(blob)
        if kind == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        return payload

    def close(self) -> None:
        """Graceful teardown: exit verb, drain, join — terminate last.

        Killing the worker outright can catch it mid-``conn.send`` and
        strand a partially written reply (a finish reply carrying a trace),
        so escalation is the last resort.  Two details make the graceful
        path reliable: any not-yet-collected replies are drained while
        waiting (a worker blocked writing a large payload into a full
        pipe cannot reach the exit verb until someone reads), and
        ``terminate`` itself escalates to ``kill`` if the worker ignores
        SIGTERM.
        """
        process = self._process
        try:
            self._conn.send(("exit",))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        deadline = time.monotonic() + self.EXIT_GRACE_SECONDS
        while process.is_alive() and time.monotonic() < deadline:
            try:
                if self._conn.poll(0.05):
                    # discard stale reply bytes (no unpickle), unblock worker
                    self._conn.recv_bytes()
                    continue
            except (EOFError, OSError):
                break  # worker closed its end: it is on the way out
            process.join(timeout=0.05)
        process.join(timeout=0.1)
        if process.is_alive():  # pragma: no cover - hung worker
            process.terminate()
            process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass


class LocalShard:
    """In-process handle with the same start/collect surface.

    Sequential-windowed mode serves the worker protocol in-process:
    every command goes through :func:`serve`, so mail crosses the same
    pickle boundary as it does between worker processes — only the pipe
    is missing.
    """

    def __init__(self, shard: ShardSystem) -> None:
        self.shard = shard
        self._pending = None

    def start(self, verb: str, *args) -> None:
        self._pending = serve(self.shard, (verb,) + args)

    def collect(self):
        result = self._pending
        self._pending = None
        return result

    def close(self) -> None:
        pass
