"""Cross-shard flit transport: boundary links, mail batches, the mailbox.

A :class:`BoundaryFlitLink` stands in for an inter-cluster link whose
destination switch lives in another shard.  It inherits the real
:class:`~repro.network.link.FlitLink` serialization and pacing — wire
timing is identical to the single-engine run — but delivery lands in a
local *outbox* instead of a remote sink.  Like every inter-cluster link
it completes packets on the sending side and decides the CRC check of a
faulted run there, so only a clean wire flit that completes some packet
becomes a mail item, carrying the link's completion mask, whether the
run is faulted, traced or neither.  At each window boundary the shard
column-encodes its outbox into one :class:`MailBatch` per destination
shard; the coordinator validates each batch's headers through
:class:`Mailbox` and forwards it to its destination shard, which injects
every item into its own engine at the precomputed arrival cycle.

Determinism: every item carries the *delivery schedule key* its flit
would have received from its :class:`FlitLink` in a single shared
engine — the negative sub-cycle key ordering deliveries before local
events, by per-link sequence then link rank.  The receiving shard
injects with exactly that key, and the engine orders events by
``(arrival, skey)`` — globally unique, since ranks are unique per
directed link and sequence numbers per-link monotone — so delivery
order is a pure function of simulated wire traffic, never of shard
scheduling or of the order batches reach the shard.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.network.flit import Flit
from repro.network.link import FlitLink
from repro.sim.engine import Engine


class LateDeliveryError(RuntimeError):
    """A boundary flit's arrival is not strictly beyond the window
    boundary — the conservative lookahead contract was violated."""


class DuplicateDeliveryError(RuntimeError):
    """A boundary flit's per-link sequence number regressed (duplicate
    or reordered delivery of the same link's traffic)."""


@dataclass(slots=True)
class MailItem:
    """One cross-shard delivery in flight, with its full ordering key
    (outbox form; it crosses shards column-encoded in a :class:`MailBatch`)."""

    arrival: int
    #: the delivery's sub-cycle schedule key (negative; see FlitLink)
    skey: int
    src_cluster: int
    dst_cluster: int
    link_seq: int
    flit: Flit
    #: the sending link's completion mask over the flit and its stitched
    #: segments (see FlitLink)
    done: int


class BoundaryFlitLink(FlitLink):
    """A :class:`FlitLink` whose deliveries go to a cross-shard outbox."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        bytes_per_cycle: float,
        latency: int,
        src_cluster: int,
        dst_cluster: int,
    ) -> None:
        super().__init__(
            engine,
            name,
            bytes_per_cycle=bytes_per_cycle,
            latency=latency,
            sink=None,
        )
        self.src_cluster = src_cluster
        self.dst_cluster = dst_cluster
        self.outbox: List[MailItem] = []
        self._link_seq = 0

    def _post(self, arrival: int, skey: int, flit: Flit, done: int) -> None:
        seq = self._link_seq
        self._link_seq = seq + 1
        self.outbox.append(
            MailItem(arrival, skey, self.src_cluster, self.dst_cluster, seq, flit, done)
        )

    def drain_outbox(self) -> List[MailItem]:
        items = self.outbox
        self.outbox = []
        return items


class MailBatch:
    """A window's mail for one destination shard, in column form.

    The transport representation of a ``List[MailItem]`` in both drive
    modes.  The per-item columns (``arrivals``/``skeys`` for ordering,
    ``dones`` for the completion masks) travel as ``array`` buffers, and
    the flits themselves as **one** opaque pickle blob per destination
    shard: the sending shard pickles its outbox exactly once (letting
    the pickle memo intern the stable ``Packet`` / ``StitchSegment``
    tuple-state prefix shared by a packet's flits), the coordinator
    routes and validates on the header columns without ever unpickling
    the payload, and only the destination shard pays the single
    ``loads``.

    The per-item link identity columns are delta-encoded away: a
    shard's outbox drains link by link, and each boundary link's
    deliveries carry contiguous per-link sequence numbers, so the
    ``(src_cluster, dst_cluster, link_seq)`` triples collapse into a
    handful of *runs* ``(src, dst, first_seq, count)`` — ``runs[4k:4k+4]``
    describes ``count`` consecutive items from link ``src->dst``
    starting at sequence ``first_seq``.  That drops 24 header bytes per
    flit from the wire and lets the coordinator validate per link run
    instead of per item (:meth:`Mailbox.validate_batch`).
    """

    __slots__ = ("arrivals", "skeys", "dones", "runs", "payload")

    def __init__(self, arrivals, skeys, dones, runs, payload) -> None:
        self.arrivals = arrivals
        self.skeys = skeys
        self.dones = dones
        self.runs = runs
        self.payload = payload

    def __len__(self) -> int:
        return len(self.arrivals)

    @classmethod
    def encode(cls, items: List[MailItem]) -> "MailBatch":
        """Column-encode ``items``; the flits are pickled once, together."""
        arrivals = array("q")
        skeys = array("q")
        # one bit per carried piece: a parent and up to 63 segments
        dones = array("Q")
        runs = array("q")
        flits = []
        run_src = run_dst = run_next_seq = None
        count = 0
        for item in items:
            arrivals.append(item.arrival)
            skeys.append(item.skey)
            dones.append(item.done)
            flits.append(item.flit)
            if (
                item.src_cluster == run_src
                and item.dst_cluster == run_dst
                and item.link_seq == run_next_seq
            ):
                count += 1
                run_next_seq += 1
                continue
            if count:
                runs.extend((run_src, run_dst, run_next_seq - count, count))
            run_src = item.src_cluster
            run_dst = item.dst_cluster
            run_next_seq = item.link_seq + 1
            count = 1
        if count:
            runs.extend((run_src, run_dst, run_next_seq - count, count))
        return cls(
            arrivals=arrivals,
            skeys=skeys,
            dones=dones,
            runs=runs,
            payload=pickle.dumps(flits, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def iter_links(self):
        """Yield ``(src_cluster, dst_cluster, first_seq, count)`` runs."""
        runs = self.runs
        for k in range(0, len(runs), 4):
            yield runs[k], runs[k + 1], runs[k + 2], runs[k + 3]

    # batches cross the worker pipe inside command tuples; tuple state
    # keeps the pickled form to the raw column buffers plus the blob
    def __getstate__(self):
        return (
            self.arrivals,
            self.skeys,
            self.dones,
            self.runs,
            self.payload,
        )

    def __setstate__(self, state):
        (
            self.arrivals,
            self.skeys,
            self.dones,
            self.runs,
            self.payload,
        ) = state


class Mailbox:
    """Validates boundary-flit batches between windows.

    Validation only: delivery order is the destination engine's
    calendar order by ``(arrival, skey)``, not the mailbox's.
    """

    def __init__(self) -> None:
        #: (src_cluster, dst_cluster) -> last link_seq seen
        self._last_seq: Dict[Tuple[int, int], int] = {}

    def validate_batch(self, batch: MailBatch, boundary: int) -> None:
        """Validate one batch against its destination's frontier.

        Checks every arrival lies strictly beyond the destination
        shard's simulated frontier ``boundary`` and that per-link
        sequence numbers stay monotone — without touching the flit
        payload blob, which stays opaque until the destination shard
        decodes it.  Both checks are per *link run*, not per item: the
        arrival floor is the C-speed column minimum, and sequence
        contiguity within a run is guaranteed by ``MailBatch.encode``
        (a non-contiguous sequence starts a new run), so advancing the
        per-link cursor by whole runs enforces the per-item monotone
        contract.
        """
        if not len(batch):
            return
        if min(batch.arrivals) <= boundary:
            arrival = min(batch.arrivals)
            raise LateDeliveryError(
                f"boundary flit arrives at {arrival}, not beyond the "
                f"destination frontier {boundary}"
            )
        last_seq = self._last_seq
        for src, dst, first_seq, count in batch.iter_links():
            key = (src, dst)
            last = last_seq.get(key, -1)
            if first_seq <= last:
                raise DuplicateDeliveryError(
                    f"link {src}->{dst} sequence regressed: "
                    f"{first_seq} after {last}"
                )
            last_seq[key] = first_seq + count - 1
