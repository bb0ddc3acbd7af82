"""ShardedSystem: the MultiGpuSystem-compatible sharded front end.

Drives ``n_shards`` :class:`~repro.shard.shard_system.ShardSystem`
instances — in-process (*sequential-windowed*) or as worker processes
(*process-parallel*) — in bounded windows of conservative lookahead.
Both modes speak the same verb protocol (:func:`repro.shard.worker.serve`)
and exchange the same column-encoded mail; only the pipe differs.

The window loop
---------------

Each iteration the coordinator:

1. computes each shard's *candidate* time — its earliest pending event
   or undelivered mail arrival; nothing the shard does can precede it;
2. runs every shard to its window boundary, delivering the previous
   window's mail.  With ``L`` the inter-cluster link latency and ``t*``
   the global minimum candidate, every shard runs to ``t* + L``: a flit
   sent at ``t >= t*`` cannot arrive before ``t + 1 + L > t* + L``, so
   no shard ever needs an input it has not been given.  A shard that is
   alone within one latency of ``t*`` stretches its boundary as far as
   the same safety argument allows (:meth:`ShardedSystem._untils`) — a
   quiet stretch of the run leaps ahead when cross-shard traffic is
   sparse, and every shard falls back to latency-sized windows under
   bursts, with per-shard frontiers replacing the aligned clock;
3. validates the shards' outbox batches on their header columns
   through :class:`~repro.shard.mailbox.Mailbox` and routes them to
   their destination shards for delivery next iteration.

Window boundaries never influence simulated event order — both drive
modes reproduce the single-engine digests byte-for-byte; the boundaries
only decide how much wall-clock coordination that reproduction costs.

Kernel boundaries are resolved analytically.  When no mail is pending,
every wavefront has completed, and every RDMA posted-write/invalidation
counter is zero, the coordinator replays the single-engine quiesce poll
chain (a poll every 16 cycles from the kernel-done cycle) against the
shards' recorded drain keys to find the exact cycle ``q`` the next
kernel would have launched at — then tells every shard to launch there,
rewinding window overshoot.  The event keys this produces match the
single-engine schedule, which is why both modes reproduce its results
byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import WorkloadTrace
from repro.gpu.node import check_trim_granularity
from repro.gpu.system import config_label
from repro.obs import Observability
from repro.obs.merge import merge_observability
from repro.shard.mailbox import MailBatch, Mailbox
from repro.shard.partition import ShardPlan
from repro.shard.shard_system import ShardObsSpec, ShardStatus, open_shard
from repro.shard.worker import LocalShard, RemoteShard
from repro.stats.assemble import assemble_result
from repro.stats.coord import CoordStats
from repro.stats.report import RunResult

#: single-engine quiesce polling period (MultiGpuSystem._advance_when_quiesced)
_QUIESCE_POLL_CYCLES = 16

#: sentinel "no candidate" time (a drained shard with no pending mail)
_INF = 1 << 62


def _available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ShardedSystem:
    """A multi-GPU node simulated as cluster shards with lookahead windows.

    API-compatible with :class:`~repro.gpu.system.MultiGpuSystem` for
    the ``load`` / ``run`` flow; results are byte-identical.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        netcrafter: Optional[NetCrafterConfig] = None,
        seed: int = 0,
        n_shards: int = 1,
        parallel: bool = False,
        obs_spec: Optional[ShardObsSpec] = None,
        # goes once the benchmark suite builds its node through build_node
        adaptive: bool = True,
    ) -> None:
        if not adaptive:
            raise ValueError("adaptive windows are the only window rule")
        self.config = config or SystemConfig.default()
        self.netcrafter = netcrafter or NetCrafterConfig.baseline()
        check_trim_granularity(self.config, self.netcrafter)
        if self.config.coherence != "software":
            raise ValueError(
                "cluster sharding requires software coherence (the analytic "
                "kernel-boundary replay assumes kernel-scoped L1 flushes)"
            )
        self.seed = seed
        self.plan = ShardPlan.from_config(self.config, n_shards)
        self.n_shards = n_shards
        self.parallel = parallel
        self.obs_spec = obs_spec or ShardObsSpec()
        #: overlap remote window execution only when the host can
        #: actually run workers concurrently (see :meth:`_broadcast`)
        self._overlap_windows = parallel and _available_cpus() > 1
        self._workload: Optional[WorkloadTrace] = None
        self._handles: List[object] = []
        self._merged_obs: Optional[Observability] = None
        self.windows_run = 0
        #: coordination-overhead breakdown of the last/current run
        self.coord_stats = CoordStats()
        #: optional :class:`repro.ckpt.Checkpointer`: the window loop
        #: saves its state and the shards' at the hook's cuts
        self._ckpt_hook = None
        #: a snapshot payload :meth:`restore` loaded for the next run
        self._restored: Optional[Dict[str, Any]] = None

    # -- MultiGpuSystem-parity API ------------------------------------------

    def load(self, workload: WorkloadTrace) -> None:
        workload.validate()
        self._workload = workload

    def run(self) -> RunResult:
        if self._workload is None:
            raise RuntimeError("no workload loaded")
        restored, self._restored = self._restored, None
        if restored is None:
            handles = self._build_handles()
        else:
            handles = self._build_handles(restored["shard_states"])
        try:
            if restored is None:
                n = self.n_shards
                statuses = self._broadcast(handles, [("begin",)] * n)
                self.coord_stats.launches += 1  # begin() launches kernel 0
                loop = dict(
                    mailbox=Mailbox(), statuses=statuses, pending=[[] for _ in range(n)],
                    frontier=[0] * n, kernel_index=0, q_final=None,
                )
            else:
                loop = restored["loop"]
                self.windows_run = restored["windows_run"]
            return self._window_loop(handles, **loop)
        finally:
            for handle in handles:
                handle.close()

    def restore(self, payload: Dict[str, Any]) -> None:
        """Load a sharded snapshot (see :mod:`repro.ckpt`): the next
        :meth:`run` restores the shards from their saved states and
        re-enters the window loop with its saved state."""
        if len(payload["shard_states"]) != self.n_shards:
            raise RuntimeError(
                f"snapshot holds {len(payload['shard_states'])} shard(s), "
                f"this coordinator drives {self.n_shards}"
            )
        self._restored = payload

    def merged_obs(self) -> Observability:
        """Merged observability artifacts of the last :meth:`run`."""
        if self._merged_obs is None:
            raise RuntimeError("run() has not completed")
        return self._merged_obs

    # -- internals ----------------------------------------------------------

    def _build_handles(self, shard_states: Optional[List[bytes]] = None) -> List[object]:
        """One handle per shard: built fresh, or over checkpointed state."""
        handles: List[object] = []
        for shard_index in range(self.n_shards):
            state = None if shard_states is None else shard_states[shard_index]
            args = (
                self.config,
                self.netcrafter,
                self.seed,
                shard_index,
                self.n_shards,
                self.obs_spec,
                self._workload if state is None else None,
            )
            if self.parallel:
                handles.append(
                    RemoteShard(*args, shard_state=state, coord_stats=self.coord_stats)
                )
            else:
                handles.append(LocalShard(open_shard(*args, shard_state=state)))
        # the shards live as long as the node, like a single engine's
        # components: dropped at the end of a run, their graphs would be
        # the run's cyclic garbage (repro.sim.collector)
        self._handles = handles
        return handles

    def _broadcast(self, handles, commands) -> List[object]:
        """Issue one command per handle, then collect every reply.

        ``commands`` is a list of ``(verb, *args)`` tuples, one per
        shard.  With more than one CPU available, remote handles overlap
        their work here — every worker is busy before the first reply is
        awaited.  On a single-CPU host that overlap only timeslices
        compute-bound workers against each other (each slice restarts
        with the other shard's working set in cache, costing real extra
        CPU), so dispatch is serialized per shard instead; replies are
        collected in shard order either way, so the command/reply
        sequence — and therefore the simulation — is identical.
        """
        if self._overlap_windows:
            for handle, command in zip(handles, commands):
                handle.start(*command)
            return [handle.collect() for handle in handles]
        replies = []
        for handle, command in zip(handles, commands):
            handle.start(*command)
            replies.append(handle.collect())
        return replies

    def _finish(self, handles, q: int) -> RunResult:
        replies = self._broadcast(handles, [("finish", q)] * self.n_shards)
        self._merged_obs = merge_observability([obs for _, obs in replies])
        return assemble_result(
            workload=self._workload.name,
            config_label=config_label(self.config, self.netcrafter),
            cycles=q,
            kernel_count=len(self._workload.kernels),
            slices=[harvest for harvest, _ in replies],
        )

    def _window_loop(
        self,
        handles,
        mailbox: Mailbox,
        statuses: List[ShardStatus],
        pending: List[List[MailBatch]],
        frontier: List[int],
        kernel_index: int,
        q_final: Optional[int],
    ) -> RunResult:
        """Run windows and kernel launches until the run ends.

        ``pending[dst]`` holds the MailBatch parcels awaiting delivery
        to shard ``dst``, routed on headers alone (payload never
        unpickled here); ``frontier[s]`` is the boundary shard ``s``
        last ran to (monotone between kernel launches; a launch
        re-anchors it).  ``q_final`` is set once the shards are closed
        at the final boundary; the windows then go on until no shard has
        a pending event or mail.  Fault retries can still be in flight
        there, and the single engine runs them out too.

        With a checkpoint hook, the loop saves its arguments and the
        shards' states at the top of an iteration once the smallest
        frontier reaches the next cut: between verbs no shard engine is
        running, and a restored run re-enters here with exactly them.
        """
        kernels = self._workload.kernels
        stats = self.coord_stats
        n = self.n_shards
        hook = self._ckpt_hook
        cut = None if hook is None else hook.next_cut(min(frontier))
        while True:
            if cut is not None and min(frontier) >= cut:
                payload = {
                    "shard_states": self._broadcast(handles, [("snapshot",)] * n),
                    "windows_run": self.windows_run,
                    "loop": dict(
                        mailbox=mailbox, statuses=statuses, pending=pending,
                        frontier=frontier, kernel_index=kernel_index, q_final=q_final,
                    ),
                }
                hook.save("sharded", min(frontier), payload)
                cut = hook.next_cut(min(frontier))
            have_mail = any(pending)
            idle = not have_mail and all(s.real_pending == 0 for s in statuses)
            at_boundary = (
                q_final is None
                and not have_mail
                and all(s.wavefronts_remaining == 0 for s in statuses)
                and all(s.counters_zero for s in statuses)
            )
            if at_boundary:
                t_done = max(s.last_wf_cycle for s in statuses)
                max_drain = max(s.max_drain for s in statuses)
                q = self._quiesce_cycle(t_done, max_drain)
                kernel_index += 1
                if kernel_index >= len(kernels):
                    if idle:
                        return self._finish(handles, q)
                    q_final = q
                    statuses = self._broadcast(handles, [("close", q)] * n)
                    continue
                # fused launch+window: after the launch every shard's
                # next event is the launch injected at key (q, q), so
                # the first post-launch window boundary is known here —
                # the separate launch status round-trip carries no
                # information and is elided
                until = self._post_launch_until(q)
                stats.launches += 1
                replies = self._broadcast(
                    handles,
                    [("launch_window", kernel_index, q, until)] * n,
                )
                frontier = [until] * n
            else:
                if idle:
                    if q_final is not None:
                        return self._finish(handles, q_final)
                    left = sum(s.wavefronts_remaining for s in statuses)
                    raise RuntimeError(
                        "simulation drained without completing all wavefronts "
                        f"(kernel {kernel_index}, {left} left)"
                    )
                for i, until in enumerate(self._untils(statuses, pending)):
                    if until > frontier[i]:
                        frontier[i] = until
                replies = self._broadcast(
                    handles,
                    [("window", frontier[i], tuple(pending[i])) for i in range(n)],
                )
            self.windows_run += 1
            stats.windows += 1
            statuses, pending = self._ingest(mailbox, replies, frontier)

    def _untils(
        self, statuses: List[ShardStatus], pending: List[List[MailBatch]]
    ) -> List[int]:
        """Per-shard window boundaries from the current candidate times.

        ``cand[s]`` is the earliest thing shard ``s`` can possibly do:
        its next pending event or its earliest undelivered mail arrival.
        Each shard is bounded by::

            until[s] = min(min(cand[x] for x != s) + L,
                           cand[s] + 1 + 2 * L)

        with ``L`` the inter-cluster link latency.  Any future arrival
        into ``s`` either originates from another shard's activity (at
        ``>= cand[x]``, arriving ``>= cand[x] + 1 + L``) or from a
        chain that left ``s`` itself and bounced back (two hops:
        ``>= cand[s] + 2 + 2 * L``), so every arrival lands strictly
        beyond ``until[s]``.

        Only the earliest shard can use that bound to run past
        ``B = min(cand) + L``; every other shard stops at ``B``.  It
        keeps the stretch only when it is alone before ``B``.  When two
        or more shards have a candidate at or before ``B``, the earliest
        one stops at ``B`` too: stretching it to ``second + L`` would
        stop the second shard ``B`` short of it, the next window would
        swap their roles, and the two would take turns instead of
        running side by side.  The inputs are deterministic simulation
        state, so the windows replay identically across drive modes.
        """
        cands = []
        for i, status in enumerate(statuses):
            cand = _INF if status.next_event is None else status.next_event[0]
            for batch in pending[i]:
                first = min(batch.arrivals)
                if first < cand:
                    cand = first
            cands.append(cand)
        lookahead = self.config.effective_inter_link_latency
        m1 = min(cands)
        i1 = cands.index(m1)
        m2 = min(
            (c for i, c in enumerate(cands) if i != i1), default=_INF
        )
        boundary = m1 + lookahead
        untils = [boundary] * self.n_shards
        if m2 > boundary:
            untils[i1] = min(m2 + lookahead, m1 + 1 + 2 * lookahead)
        return untils

    def _post_launch_until(self, q: int) -> int:
        """First window boundary after a kernel launch at cycle ``q``.

        Every shard's candidate is the launch event at ``(q, q)``, so
        this is exactly what :meth:`_untils` would return given the
        post-launch statuses.
        """
        lookahead = self.config.effective_inter_link_latency
        if self.n_shards == 1:
            return q + 1 + 2 * lookahead
        return q + lookahead

    def _ingest(self, mailbox: Mailbox, replies, frontier: List[int]):
        """Split window replies into statuses and validated pending mail.

        Every outbox item is validated against its *destination* shard's
        frontier — the cycle that shard has already simulated to — via
        the per-link monotone-sequence mailbox.  Batches route as opaque
        :class:`MailBatch` columns; the destination's engine calendar
        orders them by delivery key, so no merge happens here.
        """
        stats = self.coord_stats
        statuses: List[ShardStatus] = []
        pending: List[List[MailBatch]] = [[] for _ in range(self.n_shards)]
        for shard_out, status in replies:
            statuses.append(status)
            for dst in sorted(shard_out):
                batch = shard_out[dst]
                mailbox.validate_batch(batch, frontier[dst])
                pending[dst].append(batch)
                stats.mail_items += len(batch)
        return statuses, pending

    def _quiesce_cycle(self, t_done: int, max_drain: Tuple[int, int]) -> int:
        """Replay the single-engine quiesce poll chain analytically.

        The single-engine poll runs at ``(time=p_j, skey=s_j)`` with
        ``p_0 = s_0 = t_done`` and ``p_j = t_done + 16j``,
        ``s_j = p_{j-1}``.  It observes the counters as drained exactly
        when the draining event's key ``(Z, Zskey)`` ordered before the
        poll's — the condition tested here against the shards' recorded
        lexicographic-max drain key.
        """
        drain_cycle, drain_skey = max_drain
        poll, poll_skey = t_done, t_done
        while not (
            drain_cycle < poll
            or (drain_cycle == poll and drain_skey < poll_skey)
        ):
            poll_skey = poll
            poll += _QUIESCE_POLL_CYCLES
        return poll
