"""One cluster shard: a self-contained single-engine slice of the node.

A :class:`ShardSystem` owns a contiguous cluster range — the GPUs, the
cluster switches, the intra-cluster links, and the *outgoing* halves of
inter-cluster links (boundary links when the destination cluster lives
in another shard).  Construction, observability, CTA dispatch, phase
accounting and the end-of-run harvest come from
:class:`~repro.gpu.node.NodeCore`, shared with the single engine; this
module adds only what the sharded drive needs — the boundary links,
the coordinator verbs and the per-window :class:`ShardStatus`.  The
coordinator drives a shard through six verbs:

* :meth:`begin` — load bookkeeping + launch kernel 0 at cycle 0;
* :meth:`window` — inject the window's cross-shard mail batches, run
  the local engine to an exact boundary cycle, and hand back the outbox;
* :meth:`launch_window` — replay the next kernel launch at the quiesce
  cycle ``q`` the coordinator computed analytically, then run the first
  window after it;
* :meth:`close` — end the run at the final boundary, when events are
  still pending there (the coordinator keeps windowing until they drain);
* :meth:`finish` — drain, then hand back the slice's
  :class:`~repro.stats.assemble.SliceHarvest` and its own
  observability instruments;
* :meth:`snapshot_state` — pickle the shard between windows, for a
  checkpoint.

Determinism: local events are keyed ``(time, skey=schedule-cycle,
seq)``, and cross-shard mail is injected with the sub-cycle delivery
key the sending link computed — exactly where the delivery callback
sorts in a single shared engine (see
:class:`~repro.network.link.FlitLink`) — so the shard's event order
reproduces the single-engine run event for event.

Kernel launches need one extra move.  The coordinator proves kernel
``k+1`` launches at cycle ``q``, but a shard's clock may sit past ``q``
(window overshoot) or before it.  The shard first runs to ``q - 1``
(safe: at a quiesced kernel boundary no shard can emit cross-cluster
traffic), then :meth:`~repro.sim.engine.Engine.rewind`\\ s to exactly
``q`` so the launch injects into an empty-or-sorted bucket and its
child events carry ``skey = q``, matching the single-engine keys.

Packet and flit IDs need no coordination: each RDMA engine numbers the
packets it sends and each egress controller the flits it admits, so a
shard mints exactly the IDs its components mint in the single engine.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import KernelTrace
from repro.gpu.node import NodeCore
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import EngineProfiler
from repro.obs.tracer import NULL_TRACER, EventTracer
from repro.shard.mailbox import BoundaryFlitLink, MailItem
from repro.shard.partition import ShardPlan
from repro.stats.assemble import SliceHarvest


@dataclass
class ShardStatus:
    """One shard's progress snapshot at a window boundary."""

    #: (time, skey) of the next pending event, or None when drained
    next_event: Optional[Tuple[int, int]]
    #: pending events excluding the metrics sampler's self-reschedule
    real_pending: int
    #: wavefronts of the current kernel still running on owned GPUs
    wavefronts_remaining: int
    #: cycle the shard's last owned wavefront completed (or the launch
    #: cycle, for shards with no work in the current kernel)
    last_wf_cycle: int
    #: True when every owned RDMA engine's posted-write/invalidation
    #: counters are zero
    counters_zero: bool
    #: lexicographic max over owned GPUs of (last_drain_cycle,
    #: last_drain_skey) — when the quiesce poll chain would first observe
    #: this shard's counters at zero
    max_drain: Tuple[int, int]


@dataclass(frozen=True)
class ShardObsSpec:
    """Picklable recipe for per-shard observability instruments."""

    trace: bool = False
    #: keep every Nth packet lifecycle (1 = all)
    trace_sample: int = 1
    #: metrics snapshot period in cycles; None disables the time-series
    metrics_interval: Optional[int] = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.trace_sample < 1:
            raise ValueError(f"trace sample must be >= 1, got {self.trace_sample}")
        if self.metrics_interval is not None and self.metrics_interval < 1:
            raise ValueError(
                f"metrics interval must be >= 1, got {self.metrics_interval}"
            )

    @property
    def active(self) -> bool:
        return self.trace or self.metrics_interval is not None or self.profile

    def build(self) -> Observability:
        """A fresh instrument bundle following this recipe."""
        return Observability(
            tracer=EventTracer(sample=self.trace_sample) if self.trace else NULL_TRACER,
            metrics=(
                MetricsRegistry(self.metrics_interval)
                if self.metrics_interval is not None
                else None
            ),
            profiler=EngineProfiler() if self.profile else None,
        )


class ShardSystem(NodeCore):
    """The simulation state of one shard, driven by a coordinator."""

    def __init__(
        self,
        config: SystemConfig,
        netcrafter: NetCrafterConfig,
        seed: int,
        shard_index: int,
        n_shards: int,
        obs_spec: Optional[ShardObsSpec] = None,
    ) -> None:
        self.shard_index = shard_index
        self.plan = ShardPlan.from_config(config, n_shards)
        # owned switch nodes: the shard's cluster range, plus every
        # virtual switch (star hub, fat-tree spines) on the last shard
        self.owned_clusters = set(self.plan.nodes_of(shard_index))
        self.boundary_links: List[BoundaryFlitLink] = []
        super().__init__(
            config,
            netcrafter,
            seed,
            (obs_spec or ShardObsSpec()).build(),
            gpu_ids=self.plan.gpus_of(shard_index),
            metric_prefix=f"s{shard_index}.",
            owned_clusters=self.owned_clusters,
            boundary_link_factory=self._make_boundary_link,
        )
        self._last_wf_cycle = 0

    def _make_boundary_link(
        self, name: str, bytes_per_cycle: float, latency: int, src: int, dst: int
    ) -> BoundaryFlitLink:
        link = BoundaryFlitLink(
            self.engine, name, bytes_per_cycle, latency, src, dst
        )
        self.boundary_links.append(link)
        return link

    # -- coordinator verbs --------------------------------------------------

    def begin(self) -> ShardStatus:
        """Launch kernel 0 at cycle 0 and take the cycle-0 sample."""
        self._begin()
        return self.status()

    def window(
        self, until: int, batches, flits_per_batch
    ) -> Tuple[List[MailItem], ShardStatus]:
        """Inject mail, run to exactly ``until``, drain the outbox.

        ``batches`` are this window's :class:`~repro.shard.mailbox.MailBatch`
        parcels and ``flits_per_batch`` their already-unpickled payloads;
        mail injects straight off the column buffers, each item with the
        sending link's completion mask.  Every delivery's ``(arrival,
        skey)`` pair is globally unique and the engine calendar orders
        by it, so the parcel order does not matter.
        """
        inject = self.engine.inject
        switches = self.topology.switches
        for batch, flits in zip(batches, flits_per_batch):
            arrivals = batch.arrivals
            skeys = batch.skeys
            dones = batch.dones
            index = 0
            for _src, dst, _first_seq, count in batch.iter_links():
                receive = switches[dst].receive_flit_from_network
                for _ in range(count):
                    inject(
                        arrivals[index], skeys[index], receive, flits[index], dones[index]
                    )
                    index += 1
        outbox = self._run_window(until)
        return outbox, self.status()

    def _run_window(self, until: int) -> List[MailItem]:
        """Run the engine to exactly ``until`` and drain the boundary outboxes."""
        self.engine.run(until=until)
        outbox: List[MailItem] = []
        for link in self.boundary_links:
            if link.outbox:
                outbox.extend(link.drain_outbox())
        return outbox

    def launch_window(
        self, kernel_index: int, q: int, until: int
    ) -> Tuple[List[MailItem], ShardStatus]:
        """Replay the launch of kernel ``kernel_index`` at cycle ``q``,
        then run the first window after it (no mail), to ``until``.

        At a proven kernel boundary the coordinator already knows the
        first post-launch window boundary — every shard's next event is
        the launch injected here at ``(q, q)`` — so one verb covers
        both.  The wavefront bookkeeping is updated *eagerly* (before
        the injected event runs) so the coordinator never mistakes the
        pre-launch lull for the next kernel boundary — and so shards with
        no work in this kernel still report ``last_wf_cycle = q``.
        """
        engine = self.engine
        if engine.now < q:
            engine.run(until=q - 1)
        if engine.now != q:
            engine.rewind(q)
        self._kernel_index = kernel_index
        kernel = self._workload.kernels[kernel_index]
        # the boundary is quiesced, so the counters are final for the
        # previous kernel whether the window overshot or not
        self._phase_close(q)
        self._phase_begin(kernel)
        self._wavefronts_remaining = self._owned_wavefront_count(kernel)
        self._last_wf_cycle = q
        # bind the index: an empty kernel quiesces instantly, and the
        # coordinator may issue the *next* launch before this event runs
        # — reading self._kernel_index here would double-launch
        engine.inject(q, q, self._launch_event, kernel_index)
        return self.window(until, (), ())

    def close(self, q_final: int) -> ShardStatus:
        """End the run at the final kernel boundary ``q_final``.

        This is what the single engine does at its last boundary: set
        the finish cycle (which also stops the metrics sampler), flush
        the L1s and close the last phase.  Events still pending — fault
        retries and their answers — run on afterwards, in windows, as
        they run on after the single engine's finish.
        """
        self.stats.finish_cycle = q_final
        if self.config.coherence == "software":
            # the single-engine run flushes L1s at the final kernel
            # boundary; pure state clear, no counters touched
            for gpu in self.gpus.values():
                gpu.invalidate_l1s()
        self._phase_close(q_final)
        return self.status()

    def finish(self, q_final: int) -> Tuple[SliceHarvest, Observability]:
        """Close the run if the coordinator has not, drain the residual
        local events, and harvest the slice and its instruments."""
        if self.stats.finish_cycle is None:
            self.close(q_final)
        self.engine.run()
        return self.harvest(q_final), self.obs

    def snapshot_state(self) -> bytes:
        """Serialize this shard's complete simulation state.

        Taken between windows, when the engine is not running.  Every pending
        continuation is a bound method or a ``functools.partial`` over
        one, and requests in flight (fault retries) are requester-table
        tags, so the whole shard pickles; the engine's dispatched-prefix
        entries are dropped by ``Engine.__getstate__``.  The packet and
        flit ID cursors live in the RDMA engines and egress controllers,
        so they ride along with the rest of the slice.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    # -- kernel plumbing ----------------------------------------------------

    def _owned_wavefront_count(self, kernel: KernelTrace) -> int:
        return sum(
            len(cta.wavefronts) for cta in kernel.ctas if cta.gpu in self.gpus
        )

    def _launch_event(self, kernel_index: int) -> None:
        if self.config.coherence == "software":
            # L1 flush deferred from the previous kernel's end: no owned
            # CU touches its L1 between its last wavefront and this launch
            for gpu in self.gpus.values():
                gpu.invalidate_l1s()
        self._start_kernel(self._workload.kernels[kernel_index])

    def _start_kernel(self, kernel: KernelTrace) -> None:
        self._wavefronts_remaining = self._owned_wavefront_count(kernel)
        self._last_wf_cycle = self.engine.now
        self._dispatch_ctas(kernel)

    def _on_wavefront_done(self) -> None:
        self._wavefronts_remaining -= 1
        if self._wavefronts_remaining == 0:
            self._last_wf_cycle = self.engine.now

    # -- status -------------------------------------------------------------

    def status(self) -> ShardStatus:
        sampler_pending = (
            1 if self.obs.metrics is not None and self.stats.finish_cycle is None else 0
        )
        max_drain = (0, 0)
        counters_zero = True
        for gpu in self.gpus.values():
            rdma = gpu.rdma
            if rdma.outstanding_writes or rdma.outstanding_invalidations:
                counters_zero = False
            drain = (rdma.last_drain_cycle, rdma.last_drain_skey)
            if drain > max_drain:
                max_drain = drain
        return ShardStatus(
            next_event=self.engine.peek_key(),
            real_pending=self.engine.pending_events() - sampler_pending,
            wavefronts_remaining=self._wavefronts_remaining,
            last_wf_cycle=self._last_wf_cycle,
            counters_zero=counters_zero,
            max_drain=max_drain,
        )


def open_shard(
    config: SystemConfig,
    netcrafter: NetCrafterConfig,
    seed: int,
    shard_index: int,
    n_shards: int,
    obs_spec: Optional[ShardObsSpec],
    workload,
    shard_state: Optional[bytes] = None,
) -> ShardSystem:
    """Build shard ``shard_index`` and load ``workload`` into it, or
    restore it from checkpointed ``shard_state`` (:meth:`ShardSystem.snapshot_state`
    bytes; ``NodeCore.__setstate__`` rebinds the metric gauges)."""
    if shard_state is not None:
        return pickle.loads(shard_state)
    shard = ShardSystem(config, netcrafter, seed, shard_index, n_shards, obs_spec)
    shard.load(workload)
    return shard
