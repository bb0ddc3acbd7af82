"""Bandwidth-serialized links.

Two granularities are modeled:

* :class:`FlitLink` — used on the inter-GPU-cluster hop, where the
  NetCrafter controller operates on individual flits.  One flit occupies
  the wire for ``flit_size / bytes_per_cycle`` cycles.
* :class:`PacketLink` — used inside a cluster (GPU <-> switch), where a
  whole packet occupies the wire for its flit count's worth of cycles.
  This is flit-accurate in time without paying one simulation event per
  flit on uncongested links.

With the 1 GHz clock of Table 2, bandwidth in GB/s equals bytes per
cycle; e.g. the 16 GB/s inter-cluster fabric moves one 16-byte flit per
cycle, and the 128 GB/s intra-cluster fabric moves eight.

Timekeeping is exact.  Both link classes used to accumulate a float
``_next_free`` by repeated ``size / bytes_per_cycle`` additions, which
drifts on non-power-of-two bandwidths — after enough flits the wire's
busy time could exceed the elapsed time and spuriously trip
:class:`LinkStats` strict overcount detection.  Serialization is now
tracked as an integer byte count within the current busy burst, with the
bandwidth held as an exact integer ratio (``float.as_integer_ratio``),
so every readiness comparison and arrival ceiling is integer arithmetic:
``next_free = anchor + sent_bytes / bpc`` is never materialized as an
accumulated float.  Busy time likewise accumulates *bytes* and divides
once at query time.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.faults.process import FATE_CORRUPT, FATE_OK
from repro.obs.tracer import Traced
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.queues import BoundedQueue
from repro.network.flit import DuplicateFlitError, Flit
from repro.network.packet import Packet

__all__ = [
    "DELIVERY_RANK_SPAN",
    "DELIVERY_SKEY_BASE",
    "FlitLink",
    "LinkStats",
    "PacketLink",
    "UtilizationOvercountError",
]

#: schedule-key offset placing flit deliveries before every same-cycle
#: locally scheduled event (whose skeys are non-negative cycle numbers)
DELIVERY_SKEY_BASE = -(1 << 60)
#: default per-sequence spread of delivery ranks (one rank per directed
#: inter-cluster link: src * n_nodes + dst).  Sufficient for fabrics of
#: up to 64 switch nodes; the topology builder installs a wider
#: ``delivery_span`` on every link of larger fabrics
#: (:func:`repro.network.topology.delivery_span_for`), because a rank
#: >= the span would alias with the next sequence step of another link
#: and corrupt deterministic same-cycle delivery order
DELIVERY_RANK_SPAN = 4096


class UtilizationOvercountError(RuntimeError):
    """Raised in strict mode when busy cycles exceed elapsed cycles."""


class LinkStats:
    """Wire-level counters for one unidirectional link.

    ``busy_cycles`` is derived from the exact byte count at query time
    (one division), so it carries at most one ulp of rounding error no
    matter how many transmissions were accumulated — which is why
    ``OVERCOUNT_TOLERANCE`` can be this tight.
    """

    #: rounding headroom before busy > elapsed counts as a bug; a single
    #: division's worth of float error, not an accumulation allowance
    OVERCOUNT_TOLERANCE = 1e-9
    #: when True, :meth:`utilization` raises instead of clamping — turn
    #: on in tests/debugging so accounting bugs fail loudly (the silent
    #: clamp hid PR 1's stitched-byte double count)
    strict = False

    def __init__(self, bytes_per_cycle: float = 1.0) -> None:
        num, den = float(bytes_per_cycle).as_integer_ratio()
        self._bpc_num = num
        self._bpc_den = den
        #: exact bytes serialized onto the wire (busy time numerator)
        self.busy_bytes = 0
        self.flits = 0
        self.packets = 0
        self.wire_bytes = 0
        self.useful_bytes = 0
        #: bytes transmitted at degraded (flapped) bandwidth, keyed by
        #: the exact rate regime ``(num, den, nom_num, nom_den)``; the
        #: extra busy time is derived by division once at query time
        #: (:attr:`busy_extra`), never by accumulating per-flit floats
        self._degraded_bytes: Dict[Tuple[int, int, int, int], int] = {}
        #: worst busy-beyond-elapsed excess ever observed by
        #: :meth:`utilization`; nonzero means some counter double-counted
        self.overcount_cycles = 0.0

    def add_degraded_bytes(
        self, nbytes: int, num: int, den: int, nom_num: int, nom_den: int
    ) -> None:
        """Account ``nbytes`` serialized at ``num/den`` B/cycle while the
        nominal rate is ``nom_num/nom_den`` (a bandwidth flap)."""
        key = (num, den, nom_num, nom_den)
        self._degraded_bytes[key] = self._degraded_bytes.get(key, 0) + nbytes

    @property
    def busy_extra(self) -> float:
        """Extra busy time from degraded-rate transmissions, beyond what
        ``busy_bytes`` at the nominal rate accounts for; only ever
        nonzero under fault-injected flaps.  Derived per rate regime
        with one division each, so it carries a few ulps of rounding no
        matter how many flits a flap covered."""
        extra = 0.0
        for (num, den, nom_num, nom_den), nbytes in self._degraded_bytes.items():
            extra += (nbytes * den) / num - (nbytes * nom_den) / nom_num
        return extra

    @property
    def busy_cycles(self) -> float:
        """Cycles the wire spent serializing (bytes / bandwidth, once)."""
        busy = self.busy_bytes * self._bpc_den / self._bpc_num
        if self.busy_extra:
            busy += self.busy_extra
        return busy

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the wire was occupied.

        A physical wire cannot be busy for more cycles than elapsed, so
        ``busy_cycles > elapsed_cycles`` is always an accounting bug
        upstream.  The return value stays clamped to 1.0 (plots must not
        explode), but the excess is recorded in ``overcount_cycles`` —
        and raised as :class:`UtilizationOvercountError` when ``strict``.
        """
        if elapsed_cycles <= 0:
            return 0.0
        busy = self.busy_cycles
        excess = busy - elapsed_cycles
        if excess > self.OVERCOUNT_TOLERANCE * elapsed_cycles:
            self.overcount_cycles = max(self.overcount_cycles, excess)
            if self.strict:
                raise UtilizationOvercountError(
                    f"busy {busy:.2f} cycles > elapsed "
                    f"{elapsed_cycles} cycles (excess {excess:.2f})"
                )
            return 1.0
        return min(1.0, busy / elapsed_cycles)


class FlitLink(Traced, Component):
    """A unidirectional link transmitting one flit at a time.

    The owner (an egress controller) is responsible for pacing: it must
    only call :meth:`send` when :meth:`ready_at` <= now.  Delivery happens
    ``latency`` cycles after serialization completes.

    Deliveries carry a *deterministic sub-cycle order*: within their
    arrival cycle they execute before every locally scheduled event,
    mutually ordered by per-link sequence number then ``delivery_rank``
    (the directed link's topology index).  This makes same-cycle
    tie-breaking at the receiver a pure function of wire traffic rather
    than of global event interleaving — the property cluster-sharded
    execution needs to reproduce a single shared engine exactly.

    Packets complete on the sending side, as the paper's receiving
    Stitch Engine would reassemble them from their ID/Size metadata: the
    egress controller stages each packet with its flit count in
    ``Packet._unsent``, :meth:`send` counts down every piece a wire flit
    carries (the flit itself and each stitched segment), and only a
    wire flit that takes some packet to zero is delivered, as
    ``sink(flit, done)`` with ``done`` a bitmask over the flit (bit 0)
    and its segments (bit ``i + 1``) naming the packets it completes.
    The other flits are not delivered at all — at the receiver they
    would only have set a reassembly bit — but still take their
    sequence number, so the remaining deliveries keep their per-flit
    schedule keys.  With a fault process attached, :meth:`send` also
    decides the receiver's CRC check (see :meth:`_arrives_clean`); a
    traced run emits each wire flit's ``crc_ok``/``corrupt`` and
    ``deliver`` records here, at send time, stamped with the arrival
    cycle.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        bytes_per_cycle: float,
        latency: int,
        sink: Optional[Callable[[Flit, int], None]],
    ) -> None:
        super().__init__(engine, name)
        if bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")
        self.bytes_per_cycle = float(bytes_per_cycle)
        self._bpc_num, self._bpc_den = self.bytes_per_cycle.as_integer_ratio()
        self.latency = int(latency)
        #: the receiving switch's ingress, called as ``sink(flit, done)``
        #: (:meth:`~repro.network.switch.ClusterSwitch.receive_flit_from_network`);
        #: ``None`` on a shard-boundary link, whose :meth:`_post` appends
        #: to a cross-shard outbox
        self.sink = sink
        self.stats = LinkStats(self.bytes_per_cycle)
        #: cycle the current busy burst started serializing
        self._anchor = 0
        #: bytes serialized since the anchor; the wire frees up at
        #: ``anchor + sent_bytes / bytes_per_cycle`` exactly
        self._sent_bytes = 0
        #: topology rank breaking same-cycle ties between links (set by
        #: the topology builder to ``src * n_nodes + dst``)
        self.delivery_rank = 0
        #: per-sequence rank spread; the topology builder widens it on
        #: fabrics with more than 64 switch nodes so ranks never alias
        #: into the next sequence step of another link
        self.delivery_span = DELIVERY_RANK_SPAN
        #: per-link delivery counter, first component of the sub-cycle key
        self._delivery_seq = 0

    # -- fault layer (repro.faults), attached only when active ------------
    #: class-attribute defaults keep the fault-free hot path to a single
    #: falsy check and existing pickles/tests unaffected
    _faults = None
    _fault_stats = None
    _flap_edges = ()
    _flap_idx = 0
    _degraded = False
    _nom_num = 0
    _nom_den = 1

    def attach_faults(self, process, fault_stats) -> None:
        """Attach a :class:`~repro.faults.process.LinkFaultProcess`."""
        self._faults = process
        self._fault_stats = fault_stats
        self._nom_num, self._nom_den = self._bpc_num, self._bpc_den
        self._flap_edges = process.regime_edges(self.bytes_per_cycle)
        self._flap_idx = 0
        self._degraded = False

    def _sync_regime(self) -> None:
        """Apply any flap edges at or before the current cycle.

        The in-flight burst retires at the old rate (its flits finish
        serializing as started); the new rate anchors at the later of
        the edge cycle and the burst's free cycle, so timing stays exact
        integer arithmetic across every regime switch.
        """
        edges = self._flap_edges
        idx = self._flap_idx
        now = self.engine._now
        if idx >= len(edges) or edges[idx][0] > now:
            return
        num, den = self._bpc_num, self._bpc_den
        anchor, sent = self._anchor, self._sent_bytes
        degraded = self._degraded
        while idx < len(edges) and edges[idx][0] <= now:
            cycle, new_num, new_den, degraded = edges[idx]
            free_ceil = anchor - ((-sent * den) // num)
            anchor = max(cycle, free_ceil)
            sent = 0
            num, den = new_num, new_den
            idx += 1
        self._flap_idx = idx
        self._anchor, self._sent_bytes = anchor, sent
        self._bpc_num, self._bpc_den = num, den
        self._degraded = degraded

    def ready_at(self) -> int:
        """First integer cycle during which a new flit may start."""
        if self._flap_edges:
            self._sync_regime()
        now = self.engine._now
        free = self._anchor + (self._sent_bytes * self._bpc_den) // self._bpc_num
        return free if free > now else now

    def is_ready(self) -> bool:
        """A flit may start serializing within the current cycle.

        The engine ticks integer cycles but serialization is fractional
        (a 16 B flit on a 128 B/cycle link occupies 1/8 cycle), so a fast
        link accepts several flits within one cycle; it is "ready" while
        the next transmission can still *start* before the cycle ends.
        """
        if self._flap_edges:
            self._sync_regime()
        # next_free < now + 1, cross-multiplied to stay in integers
        return self._sent_bytes * self._bpc_den < (
            self.engine._now + 1 - self._anchor
        ) * self._bpc_num

    def send(self, flit: Flit, attempt: int = 0, first_cycle: int = 0) -> None:
        """Serialize ``flit`` onto the wire; deliver it if it completes a packet.

        ``attempt`` (the retransmission count) and ``first_cycle`` (the
        first transmission's cycle) are passed only by :meth:`_retransmit`.
        """
        engine = self.engine
        faults = self._faults
        if faults is not None and self._flap_edges:
            self._sync_regime()
        now = engine._now
        num, den = self._bpc_num, self._bpc_den
        sent = self._sent_bytes
        if sent * den <= (now - self._anchor) * num:
            # the wire caught up (or idled): a new busy burst starts now
            self._anchor = now
            sent = 0
        elif sent * den >= (now + 1 - self._anchor) * num:
            raise RuntimeError(
                f"{self.name}: send at cycle {now} before ready "
                f"(next free {self._anchor + sent * den / num:.2f})"
            )
        size = flit.flit_size
        sent += size
        self._sent_bytes = sent
        stats = self.stats
        stats.busy_bytes += size
        stats.flits += 1
        stats.wire_bytes += size
        # ceil(anchor + sent/bpc) + latency, in exact integer arithmetic
        arrival = self._anchor - ((-sent * den) // num) + self.latency
        trace_on = self._trace_on
        if trace_on:
            self._tracer.flit_event(
                now,
                "wire_start",
                flit,
                link=self.name,
                dur=size * den / num,
                bytes=size,
                stitched=len(flit.segments),
            )
        if faults is not None and not self._arrives_clean(
            flit, attempt, first_cycle, arrival
        ):
            return
        # Flit.useful_payload_bytes, inlined: only a clean copy counts
        stats.useful_bytes += flit.used_bytes + flit._seg_payload_bytes
        # count down each carried piece's packet: bit 0 of ``done`` marks
        # the flit's own packet complete, bit i + 1 the packet of segment i
        packet = flit.packet
        left = packet._unsent - 1
        packet._unsent = left
        if left < 0:
            self._oversent(flit, packet)
        done = 0 if left else 1
        segments = flit.segments
        if segments:
            bit = 2
            for segment in segments:
                carried = segment.flit.packet
                left = carried._unsent - 1
                carried._unsent = left
                if not left:
                    done |= bit
                elif left < 0:
                    self._oversent(flit, carried)
                bit <<= 1
        seq = self._delivery_seq
        self._delivery_seq = seq + 1
        if trace_on:
            # one deliver per carried flit (the wire flit and its
            # segments), stamped with the arrival cycle
            for carried in flit.all_carried_flits():
                self._tracer.flit_event(
                    arrival, "deliver", carried, lane=self.name, via=flit.fid
                )
        if not done:
            # the receiver would only have set a reassembly bit; the flit
            # still took its sequence number, so every remaining delivery
            # keeps the schedule key it had per flit
            return
        skey = DELIVERY_SKEY_BASE + seq * self.delivery_span + self.delivery_rank
        sink = self.sink
        if sink is None:
            # a shard-boundary link: the flit leaves through its outbox
            self._post(arrival, skey, flit, done)
        else:
            engine.inject(arrival, skey, sink, flit, done)

    def _oversent(self, flit: Flit, packet: Packet) -> None:
        raise DuplicateFlitError(
            f"{self.name}: flit {flit.fid} carries a flit of packet "
            f"{packet.pid}, which has no unsent flits left (sent twice, "
            f"or never staged by an egress controller)"
        )

    def _arrives_clean(
        self, flit: Flit, attempt: int, first_cycle: int, arrival: int
    ) -> bool:
        """Draw the transmission's fate; ``False`` when nothing usable
        arrives.

        The receiving switch's CRC check is decided here, at the sender:
        a clean copy counts ``crc_ok``, a corrupted one ``crc_fail`` and
        is discarded (it still takes its delivery sequence number, as the
        corrupted copy on the wire would), and a dropped one arrives not
        at all.  Either failure schedules the retransmission — one NACK
        trip after the corrupted copy's arrival, or at the drop timeout
        — unless the retry budget is spent.  Every transmission occupies
        the wire and counts toward ``busy_bytes``/``wire_bytes``; only a
        clean copy counts toward ``useful_bytes``, which separates
        goodput from raw throughput under faults.
        """
        now = self.engine._now
        size = flit.flit_size
        fstats = self._fault_stats
        if self._degraded:
            # busy_bytes assumes the nominal rate; record the extra wire
            # time a degraded-rate transmission actually took, as exact
            # bytes per rate regime (divided once at query time)
            fstats.degraded_flits += 1
            self.stats.add_degraded_bytes(
                size, self._bpc_num, self._bpc_den, self._nom_num, self._nom_den
            )
        fate = self._faults.fate(flit, attempt)
        if fate == FATE_OK:
            fstats.crc_ok += 1
            if attempt:
                fstats.recovery_latency.record(now - first_cycle)
            if self._trace_on:
                self._tracer.flit_event(arrival, "crc_ok", flit, lane=self.name)
            return True
        cfg = self._faults.config
        if fate == FATE_CORRUPT:
            # the damaged copy fails the receiver's CRC and is discarded,
            # while the sender learns of the failure one NACK trip after
            # its arrival
            fstats.flits_corrupted += 1
            fstats.bytes_corrupted += size
            fstats.crc_fail += 1
            self._delivery_seq += 1
            if self._trace_on:
                self._tracer.flit_event(arrival, "corrupt", flit, lane=self.name)
            nack = (
                cfg.nack_latency if cfg.nack_latency is not None else self.latency
            )
            retry_at = arrival + cfg.crc_latency + nack
        else:  # FATE_DROP: nothing arrives; only the timeout recovers it
            fstats.flits_dropped += 1
            fstats.bytes_dropped += size
            if self._trace_on:
                self._tracer.flit_event(now, "drop", flit, link=self.name)
            retry_at = now + cfg.drop_timeout
        if attempt + 1 > cfg.max_link_retries:
            fstats.flits_abandoned += 1
        else:
            self.engine.schedule_at(
                retry_at,
                self._retransmit,
                flit,
                attempt + 1,
                first_cycle if attempt else now,
            )
        return False

    def _retransmit(self, flit: Flit, attempt: int, first_cycle: int) -> None:
        """Re-send a corrupted/dropped flit once the wire is free.

        Counts and traces only when the transmission actually starts; a
        busy wire just requeues at its next free cycle.
        """
        if not self.is_ready():
            self.engine.schedule_at(
                self.ready_at(), self._retransmit, flit, attempt, first_cycle
            )
            return
        fstats = self._fault_stats
        fstats.flits_retransmitted += 1
        fstats.bytes_retransmitted += flit.flit_size
        if self._trace_on:
            self._tracer.flit_event(
                self.engine._now, "retransmit", flit, link=self.name, attempt=attempt
            )
        self.send(flit, attempt, first_cycle)

    def _post(self, arrival: int, skey: int, flit: Flit, done: int) -> None:
        """Hand ``flit`` to the receiving shard at ``arrival``.

        The hook for shard-boundary links (``sink is None``), which
        capture the flit into an outbox for cross-shard mailbox delivery
        instead of scheduling it on the local engine, with the same
        sub-cycle key and completion mask, so delivery order is
        identical however it travels.
        """
        raise NotImplementedError(f"{self.name} has no sink")


class PacketLink(Component):
    """A unidirectional link carrying whole packets with flit-count timing.

    Packets enter a bounded queue and drain in FIFO order at the link's
    bandwidth; :meth:`send` returns ``False`` under backpressure, in which
    case the producer should retry via :meth:`notify_on_space`.

    Draining is batched: one wakeup serializes every packet whose
    transmission can start within the current cycle, instead of paying a
    zero-delay engine event per packet.  Batching is *order-preserving*:
    the next queued packet is drained inline only when the engine has no
    other event pending at the current cycle — exactly the situation in
    which the old per-packet zero-delay chain would have executed the
    follow-up drain as the very next event with nothing in between, so
    eliding that bookkeeping event shifts every later event's sequence
    number uniformly without reordering any pair of events.  When another
    same-cycle event *is* pending, the zero-delay chain is kept so the
    interleaving (and therefore same-cycle FIFO tie-breaking downstream)
    stays bit-identical to the unbatched implementation.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        bytes_per_cycle: float,
        latency: int,
        flit_size: int,
        sink: Callable[[Packet], None],
        buffer_entries: int = 1024,
    ) -> None:
        super().__init__(engine, name)
        if bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")
        self.bytes_per_cycle = float(bytes_per_cycle)
        self._bpc_num, self._bpc_den = self.bytes_per_cycle.as_integer_ratio()
        self.latency = int(latency)
        self.flit_size = int(flit_size)
        self.sink = sink
        self.queue = BoundedQueue(buffer_entries, name=f"{name}.buf")
        self.stats = LinkStats(self.bytes_per_cycle)
        self._draining = False
        self._anchor = 0
        self._sent_bytes = 0

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission; ``False`` when full."""
        if not self.queue.push(packet):
            return False
        if not self._draining:
            self._draining = True
            self.schedule(0, self._drain)
        return True

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self.queue.notify_on_space(callback)

    def _drain(self) -> None:
        queue = self.queue
        items = queue._items
        if not items:
            self._draining = False
            return
        engine = self.engine
        now = engine._now
        num, den = self._bpc_num, self._bpc_den
        anchor, sent = self._anchor, self._sent_bytes
        if sent * den >= (now + 1 - anchor) * num:
            # wire busy past this cycle: resume when it frees up
            self.schedule(anchor + (sent * den) // num - now, self._drain)
            return
        if sent * den <= (now - anchor) * num:
            # the wire caught up (or idled): a new busy burst starts now
            anchor, sent = now, 0
        budget = (now + 1 - anchor) * num
        flit_size = self.flit_size
        latency = self.latency
        sink = self.sink
        waiters = queue._waiters
        pending_now = engine.pending_now
        schedule_at = engine.schedule_at
        # stats accumulate in locals and flush once per drain burst: the
        # five per-packet counter bumps otherwise dominate this loop
        n_packets = n_flits = n_wire = n_useful = 0
        while True:
            # BoundedQueue.pop, inlined: the space waiter still wakes
            # before anything else this packet causes
            packet = items.popleft()
            if waiters:
                waiters.popleft()()
            layout = packet._layout
            if layout is None or layout[0] != flit_size:
                packet.flit_count(flit_size)
                layout = packet._layout
            wire_bytes = layout[2]
            sent += wire_bytes
            n_packets += 1
            n_flits += layout[1]
            n_wire += wire_bytes
            n_useful += packet._hdr + packet.payload_bytes
            # delivery once serialization completes: ceil(next_free) + latency
            schedule_at(anchor - ((-sent * den) // num) + latency, sink, packet)
            if pending_now():
                # another event is pending this cycle; chain through a
                # zero-delay event so it interleaves exactly as before
                resume = 0
                break
            # nothing else can run before the chained drain would: inline it
            if not items:
                resume = None
                break
            if sent * den >= budget:
                resume = anchor + (sent * den) // num - now
                break
        self._anchor, self._sent_bytes = anchor, sent
        queue.total_popped += n_packets
        stats = self.stats
        stats.busy_bytes += n_wire
        stats.packets += n_packets
        stats.flits += n_flits
        stats.wire_bytes += n_wire
        stats.useful_bytes += n_useful
        if resume is None:
            self._draining = False
        else:
            self.schedule(resume, self._drain)
