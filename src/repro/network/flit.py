"""Flit model: fixed-size flow-control units, with stitching support.

Packets are segmented into fixed-size flits before crossing a link.  A
flit knows how many of its bytes are useful (``used_bytes``); the rest is
padding.  NetCrafter's Stitch Engine absorbs compatible flits into the
padding of a *parent* flit; the absorbed flits ride along as
:class:`StitchSegment` entries, each counted toward its own packet when
the parent goes on the wire (Section 4.2's un-stitching, decided on the
sending side by :class:`~repro.network.link.FlitLink`).

Stitching cost model (Figure 10):

* a **whole-packet** candidate (single-flit packet, header included)
  costs exactly its used bytes;
* a **partial-payload** candidate (the header-less tail flit of a larger
  packet) additionally needs ``STITCH_METADATA_BYTES`` of ID + Size so
  the receiver can reunite it with the rest of its packet.

Flits are hot-path objects (the stitch scan touches every staged flit's
cost and padding once per ejection), so the dataclasses are slotted and
the per-flit quantities that a scan recomputed on every visit —
packet flit count, stitch cost, absorbed-byte totals — are cached at
segmentation time or maintained incrementally by :meth:`Flit.absorb`.
All of them are immutable after the flit exists: segmentation happens
*after* trimming, so the owning packet's layout can no longer change.

Flit IDs are minted where flits enter the fabric: the egress
:class:`~repro.core.controller.NetCrafterController` stamps each flit it
admits with ``cq_seq * n_nodes**2 + (src * n_nodes + dst)``, unique per
directed link and identical in single-engine and sharded drives.  A flit
that never passed a controller keeps ``fid = -1`` (unassigned).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.network.packet import Packet

#: ID + Size prefix added when stitching a header-less payload fragment
#: (a 2-byte packet ID tag and a 1-byte size field, Section 4.2).
STITCH_METADATA_BYTES = 3


class DuplicateFlitError(RuntimeError):
    """A flit of a packet was carried twice (or never staged).

    Raised by the sending :class:`~repro.network.link.FlitLink` when a
    packet's unsent-flit count would go below zero: a routing or
    stitching bug upstream would otherwise complete the packet early,
    with one real flit still in flight to corrupt a later packet.
    """


class StitchKind(enum.Enum):
    """How a candidate flit was embedded into its parent."""

    WHOLE_PACKET = "whole"
    PARTIAL_PAYLOAD = "partial"


@dataclass(slots=True)
class StitchSegment:
    """One absorbed candidate flit riding inside a parent flit."""

    kind: StitchKind
    flit: "Flit"

    @property
    def wire_bytes(self) -> int:
        """Bytes of the parent flit consumed by this segment."""
        extra = STITCH_METADATA_BYTES if self.kind is StitchKind.PARTIAL_PAYLOAD else 0
        return self.flit.used_bytes + extra

    # tuple state: cheaper than the default slot-dict when pickled inside
    # cross-shard mail batches (see Flit.__getstate__)
    def __getstate__(self):
        return (self.kind, self.flit)

    def __setstate__(self, state):
        self.kind, self.flit = state


@dataclass(eq=False, slots=True)
class Flit:
    """A fixed-size flow-control unit belonging to one packet.

    Identity semantics (``eq=False``): flits are unique wire objects.
    """

    packet: Packet
    index: int
    used_bytes: int
    flit_size: int
    #: stamped by the egress controller on admission (-1 = unassigned)
    fid: int = -1
    segments: List[StitchSegment] = field(default_factory=list)
    #: set once the flit has been through one pooling delay, so it is not
    #: pooled a second time
    pooled: bool = False
    #: arrival order in the Cluster Queue (age-based egress scheduling)
    cq_seq: int = 0
    #: owning packet's flit count, cached at segmentation (0 = not yet)
    pkt_flits: int = field(default=0, repr=False)
    #: cached :meth:`stitch_cost` (-1 = not yet computed)
    _cost: int = field(default=-1, repr=False)
    #: wire bytes consumed by absorbed segments (kept by :meth:`absorb`)
    _seg_wire_bytes: int = field(default=0, repr=False)
    #: payload bytes carried by absorbed segments
    _seg_payload_bytes: int = field(default=0, repr=False)

    @property
    def packet_flit_count(self) -> int:
        """Flit count of the owning packet, computed once."""
        count = self.pkt_flits
        if count == 0:
            count = self.packet.flit_count(self.flit_size)
            self.pkt_flits = count
        return count

    @property
    def empty_bytes(self) -> int:
        """Padding bytes still available for stitching."""
        return self.flit_size - self.used_bytes - self._seg_wire_bytes

    @property
    def useful_payload_bytes(self) -> int:
        """Payload bytes carried: this flit's plus every absorbed flit's.

        Excludes the ID/Size metadata of PARTIAL_PAYLOAD segments — that
        prefix is wire overhead spent to enable stitching, not payload.
        """
        return self.used_bytes + self._seg_payload_bytes

    @property
    def dst_gpu(self) -> int:
        return self.packet.dst_gpu

    @property
    def is_ptw(self) -> bool:
        return self.packet._ptw

    def stitch_cost(self) -> int:
        """Bytes of parent-flit space this flit needs when stitched."""
        cost = self._cost
        if cost < 0:
            cost = self.used_bytes
            if self.packet_flit_count > 1:
                cost += STITCH_METADATA_BYTES
            self._cost = cost
        return cost

    def stitch_kind(self) -> StitchKind:
        if self.packet_flit_count == 1:
            return StitchKind.WHOLE_PACKET
        return StitchKind.PARTIAL_PAYLOAD

    def can_absorb(self, candidate: "Flit") -> bool:
        """Whether ``candidate`` fits into this flit's remaining padding.

        Per Section 4.2 only flits sharing the same route are combined; the
        destination check is performed by the Cluster Queue (flits are
        partitioned per destination cluster), so only size is checked here.
        """
        if candidate is self:
            return False
        if candidate.segments:
            # a flit that already absorbed others is itself a parent; the
            # controller never offers it as a candidate, but guard anyway
            return False
        return candidate.stitch_cost() <= self.empty_bytes

    def absorb(self, candidate: "Flit") -> StitchSegment:
        """Stitch ``candidate`` into this flit, returning the segment."""
        if not self.can_absorb(candidate):
            raise ValueError(
                f"flit {self.fid} cannot absorb candidate {candidate.fid}: "
                f"{candidate.stitch_cost()} B > {self.empty_bytes} B empty"
            )
        segment = StitchSegment(kind=candidate.stitch_kind(), flit=candidate)
        self.segments.append(segment)
        self._seg_wire_bytes += segment.wire_bytes
        self._seg_payload_bytes += candidate.used_bytes
        return segment

    def all_carried_flits(self) -> List["Flit"]:
        """This flit plus every flit stitched into it (for un-stitching)."""
        return [self] + [seg.flit for seg in self.segments]

    # Flits are the payload of cross-shard mailbox batches, pickled once
    # per lookahead window in process-parallel mode.  The default slotted
    # protocol emits a per-object {slot: value} dict; a flat tuple halves
    # the serialization cost on the coordinator's critical path.
    def __getstate__(self):
        return (
            self.packet,
            self.index,
            self.used_bytes,
            self.flit_size,
            self.fid,
            self.segments,
            self.pooled,
            self.cq_seq,
            self.pkt_flits,
            self._cost,
            self._seg_wire_bytes,
            self._seg_payload_bytes,
        )

    def __setstate__(self, state):
        (
            self.packet,
            self.index,
            self.used_bytes,
            self.flit_size,
            self.fid,
            self.segments,
            self.pooled,
            self.cq_seq,
            self.pkt_flits,
            self._cost,
            self._seg_wire_bytes,
            self._seg_payload_bytes,
        ) = state


def segment_packet(packet: Packet, flit_size: int) -> List[Flit]:
    """Split a packet into flits, assigning useful bytes per flit.

    The first flit carries the header (plus as much payload as fits);
    subsequent flits carry the remaining payload; the final flit's
    remainder is padding.
    """
    if flit_size <= 0:
        raise ValueError("flit size must be positive")
    total = packet.bytes_required
    count = packet.flit_count(flit_size)
    if count == 1:  # the common case: requests and acks fit in one flit
        return [
            Flit(
                packet=packet,
                index=0,
                used_bytes=total,
                flit_size=flit_size,
                pkt_flits=1,
            )
        ]
    flits: List[Flit] = []
    for index in range(count):
        used = min(flit_size, total - index * flit_size)
        flits.append(
            Flit(
                packet=packet,
                index=index,
                used_bytes=used,
                flit_size=flit_size,
                pkt_flits=count,
            )
        )
    return flits
