"""Run-wide statistic collectors shared by simulator components."""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Optional, Tuple


class LatencyStat:
    """Count, mean, max and percentiles over recorded latencies.

    The record is one fixed-bucket histogram (see :meth:`bucket_floor`)
    that never drops a sample; percentiles answer with a bucket's lower
    edge (at most ``2**-HIST_SUB_BITS`` below the exact value).  The
    histogram is also the serialized form, so a freshly simulated stat
    and its cached copy answer every query identically, and merging is
    a sum, so any merge order gives the same stat.
    """

    #: log2 sub-bucket resolution of the fixed histogram: each power-of-
    #: two range splits into 2**HIST_SUB_BITS linear buckets, bounding
    #: relative quantization error at 2**-HIST_SUB_BITS
    HIST_SUB_BITS = 3

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0
        #: bucket floor -> sample count; see :meth:`bucket_floor`
        self._hist: Counter = Counter()

    @classmethod
    def bucket_floor(cls, value: int) -> int:
        """Lower edge of the fixed histogram bucket containing ``value``."""
        if value <= 0:
            return 0
        msb = value.bit_length() - 1
        if msb <= cls.HIST_SUB_BITS:
            return value  # exact below 2**(HIST_SUB_BITS+1)
        width = 1 << (msb - cls.HIST_SUB_BITS)
        return value - (value % width)

    def record(self, latency: int) -> None:
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency
        self._hist[self.bucket_floor(latency)] += 1

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @staticmethod
    def _rank(p: float, n: int) -> int:
        """Floor-based nearest-rank index into ``n`` ordered samples.

        ``round()`` (banker's rounding) made p50/p99 depend on
        sample-count parity; the floor rule does not.  ``p * (n - 1)``
        before the division so integer percentiles stay exact in
        floating point.
        """
        return max(0, min(n - 1, math.floor(p * (n - 1) / 100)))

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) by floor-based nearest-rank,
        answered with the lower edge of the bucket holding that rank."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within 0..100")
        n = sum(self._hist.values())
        if n == 0:
            return 0.0
        rank = self._rank(p, n)
        cumulative = 0
        for floor in sorted(self._hist):
            cumulative += self._hist[floor]
            if cumulative > rank:
                return float(floor)
        return float(max(self._hist))  # pragma: no cover - defensive

    def merge(self, other: "LatencyStat") -> None:
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        self._hist.update(other._hist)

    # -- serialization (persistent result cache) ---------------------------
    #
    # Legacy "samples" payloads predate the histogram and are rejected so
    # cache reads treat them as misses, never as results with silently
    # empty percentiles.

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "hist": sorted(self._hist.items()),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyStat":
        if "hist" not in data:
            raise ValueError(
                "legacy LatencyStat payload (raw samples, no histogram)"
            )
        stat = cls()
        stat.count = int(data["count"])
        stat.total = int(data["total"])
        stat.max = int(data["max"])
        stat._hist = Counter({int(floor): int(n) for floor, n in data["hist"]})
        return stat


def _encode(value: object) -> object:
    """The tagged JSON form of one stats-block attribute."""
    if isinstance(value, LatencyStat):
        return {"__latency__": value.to_dict()}
    if isinstance(value, Counter):
        # [key, count] pairs: JSON object keys must be strings
        return {"__counter__": sorted(value.items())}
    if isinstance(value, FaultStats):
        return {"__faults__": value.to_dict()}
    if isinstance(value, dict):  # phase name -> PhaseStats
        return {"__phases__": {name: value[name].to_dict() for name in sorted(value)}}
    return value


def _decode(value: object) -> object:
    """Inverse of :func:`_encode`."""
    if not isinstance(value, dict):
        return value
    if "__latency__" in value:
        return LatencyStat.from_dict(value["__latency__"])
    if "__counter__" in value:
        return Counter({int(k): int(v) for k, v in value["__counter__"]})
    if "__faults__" in value:
        return FaultStats.from_dict(value["__faults__"])
    if "__phases__" in value:
        return {
            name: PhaseStats.from_dict(block)
            for name, block in value["__phases__"].items()
        }
    return value


class _StatsBlock:
    """The one merge and serialization rule of the run's stats blocks.

    Both walk the attributes in ``vars()`` order, so any attribute added
    to a block's ``__init__`` merges and round-trips with no code change
    (and cache files, written without ``sort_keys``, keep their bytes).
    ``_``-prefixed attributes are transient bookkeeping and are skipped;
    ``None`` attributes are optional blocks (``RunStats.faults``,
    ``RunStats.phases``) that this run never created, and are omitted so
    a run without them serializes as a build without the subsystem would.

    Merging folds another part of the same run in (one per cluster
    shard): ints add, Counters and latency histograms sum, nested blocks
    merge recursively.  Every operation is a sum or a max, so a sharded
    run aggregates to the single engine's stats in any merge order.
    """

    #: run-global milestones every part observes identically: merged by
    #: max, and always serialized (even while still ``None``)
    _MAX_FIELDS: Tuple[str, ...] = ()

    def merge(self, other: "_StatsBlock") -> None:
        for key, value in vars(other).items():
            if key.startswith("_") or value is None:
                continue
            mine = getattr(self, key)
            if key in self._MAX_FIELDS:
                setattr(self, key, value if mine is None else max(mine, value))
                continue
            if mine is None:  # an optional block only ``other`` has
                mine = type(value)()
                setattr(self, key, mine)
            if isinstance(value, Counter):
                mine.update(value)
            elif isinstance(value, dict):  # phase name -> PhaseStats
                for name, block in value.items():
                    mine.setdefault(name, PhaseStats()).merge(block)
            elif isinstance(value, (LatencyStat, _StatsBlock)):
                mine.merge(value)
            else:
                setattr(self, key, mine + value)

    def to_dict(self) -> Dict[str, object]:
        return {
            key: _encode(value)
            for key, value in vars(self).items()
            if not key.startswith("_")
            and (value is not None or key in self._MAX_FIELDS)
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "_StatsBlock":
        stats = cls()
        for key, value in data.items():
            setattr(stats, key, _decode(value))
        return stats


class FaultStats(_StatsBlock):
    """Fault-injection and reliability-layer counters for one run.

    Exists only when the fault subsystem is attached
    (``RunStats.faults`` stays ``None`` otherwise, keeping fault-free
    serialization byte-identical to builds without the subsystem).
    Every field sums on merge, so sharded runs aggregate to the
    single-engine totals.
    """

    def __init__(self) -> None:
        # link-level fault events (wire transmissions, not unique flits:
        # a flit corrupted twice counts twice)
        self.flits_corrupted = 0
        self.bytes_corrupted = 0
        self.flits_dropped = 0
        self.bytes_dropped = 0
        # reliability-layer recoveries
        self.flits_retransmitted = 0
        self.bytes_retransmitted = 0
        #: faulted transmissions the link layer gave up on (recovery
        #: falls to the RDMA backstop); conservation invariant:
        #: corrupted + dropped == retransmitted + abandoned at drain
        self.flits_abandoned = 0
        # CRC outcomes of the receiving switch (wire flits, stitched or
        # not), decided by the sending link with each transmission's fate
        self.crc_ok = 0
        self.crc_fail = 0
        # requester-level backstop
        self.rdma_retries = 0
        self.rdma_duplicate_responses = 0
        # flap bookkeeping: transmissions started at degraded bandwidth
        self.degraded_flits = 0
        #: cycles from a flit's first faulted transmission to the start
        #: of its first clean transmission (not its arrival, which is
        #: one serialization and one link latency later)
        self.recovery_latency = LatencyStat()


class PhaseStats(_StatsBlock):
    """Per-phase traffic and latency breakdown for one workload phase.

    Collective workloads label their kernels with a phase name
    (``KernelTrace.phase``); the executing system attributes quiesced
    boundary-to-boundary deltas of the inter-cluster link and egress
    controller counters to the finished kernel's phase, and the RDMA
    engines route inter-cluster read latencies into the live phase.

    Merge semantics are chosen so sharded runs reproduce the single
    engine byte-for-byte: traffic counters are per-shard-disjoint and
    *sum*; ``kernels``/``cycles`` are run-global milestones every shard
    observes identically (kernel boundaries are proven globally) and
    merge by *max*; the latency histogram sums.
    """

    _MAX_FIELDS = ("kernels", "cycles")

    def __init__(self) -> None:
        #: kernels executed under this phase label
        self.kernels = 0
        #: cycles between the phase's kernel boundaries
        self.cycles = 0
        # inter-cluster link deltas (FlitStats slice)
        self.inter_flits = 0
        self.inter_wire_bytes = 0
        self.inter_useful_bytes = 0
        # egress-controller deltas (stitching effectiveness per phase)
        self.flits_entered = 0
        self.flits_absorbed = 0
        #: inter-cluster remote-read latencies recorded during the phase
        self.read_latency_inter = LatencyStat()

    def stitch_rate(self) -> float:
        if self.flits_entered == 0:
            return 0.0
        return self.flits_absorbed / self.flits_entered


class RunStats(_StatsBlock):
    """Counters updated in place by CUs, GMMUs, RDMA engines, etc.

    One instance exists per simulation run; the experiment harness reads
    it (together with link and controller stats) into a
    :class:`~repro.stats.report.RunResult`.  ``kernel_count`` and
    ``finish_cycle`` are run-global milestones, not per-shard partial
    sums: they merge by max, and the result assembler assigns both after
    merging.
    """

    _MAX_FIELDS = ("kernel_count", "finish_cycle")

    def __init__(self) -> None:
        # instruction/work proxies
        self.mem_ops = 0
        self.reads = 0
        self.writes = 0
        # L1 behaviour (aggregated over all CUs)
        self.l1_hits = 0
        self.l1_misses = 0
        self.l1_sector_misses = 0
        self.l1_refetches = 0  # waiter re-issues after an incompatible sector fill
        self.l1_mshr_stall_retries = 0
        # locality of read fills
        self.local_reads = 0
        self.remote_reads_intra = 0
        self.remote_reads_inter = 0
        self.remote_writes_intra = 0
        self.remote_writes_inter = 0
        self.local_writes = 0
        # Figure 7: bytes the wavefront needs per inter-cluster read request
        self.read_req_bytes_hist: Counter = Counter()
        # remote access latency, split by whether it crossed clusters
        self.remote_read_latency_inter = LatencyStat()
        self.remote_read_latency_intra = LatencyStat()
        # page-table walks
        self.ptw_walks = 0
        self.ptw_latency = LatencyStat()
        self.ptw_pte_accesses = 0
        self.ptw_remote_pte_accesses = 0
        self.ptw_inter_pte_accesses = 0
        # hardware-coherence extension traffic
        self.coherence_inv_sent = 0
        self.coherence_inv_sent_inter = 0
        self.coherence_inv_received = 0
        # fault-injection / reliability counters; created lazily by the
        # fault layer so fault-free runs serialize without the block
        # (digest discipline: off means byte-identical output)
        self.faults: Optional[FaultStats] = None
        # per-phase breakdown; created lazily on the first phase-labelled
        # kernel, so workloads without phases serialize without the block
        self.phases: Optional[Dict[str, PhaseStats]] = None
        #: live phase pointer for record-time routing; underscore
        #: attributes are transient bookkeeping — excluded from merge and
        #: serialization
        self._phase: Optional[str] = None
        # execution milestones
        self.kernel_count = 0
        self.finish_cycle: Optional[int] = None

    # -- per-phase breakdown -------------------------------------------------

    def phase(self, name: str) -> PhaseStats:
        """The (lazily created) :class:`PhaseStats` block for ``name``."""
        if self.phases is None:
            self.phases = {}
        block = self.phases.get(name)
        if block is None:
            block = self.phases[name] = PhaseStats()
        return block

    def set_live_phase(self, name: Optional[str]) -> None:
        """Point record-time routing at ``name`` (``None``: no phase)."""
        self._phase = name
        if name is not None:
            self.phase(name)  # materialize so hot-path routing is a lookup

    def record_phase_read_latency(self, latency: int) -> None:
        """Route an inter-cluster read latency into the live phase."""
        if self._phase is not None:
            self.phases[self._phase].read_latency_inter.record(latency)

    # -- derived metrics ---------------------------------------------------

    @property
    def l1_accesses(self) -> int:
        return self.l1_hits + self.l1_misses + self.l1_sector_misses

    def l1_mpki(self) -> float:
        """L1 misses per kilo memory-operation (instruction proxy)."""
        if self.mem_ops == 0:
            return 0.0
        return 1000.0 * (self.l1_misses + self.l1_sector_misses) / self.mem_ops

    def record_read_request_bytes(self, bytes_needed: int) -> None:
        """Bucket an inter-cluster read by needed bytes (<=16/32/48/64)."""
        bucket = min(64, ((max(1, bytes_needed) + 15) // 16) * 16)
        self.read_req_bytes_hist[bucket] += 1
