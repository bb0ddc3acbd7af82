"""Packet model for the simplified PCIe-style inter-GPU protocol.

The paper (Section 4.1, Table 1) assumes six packet types.  Each packet
has a header (4 bytes of metadata plus, for request-style packets, an
8-byte address field) and an optional payload:

============  ======  =======  ==============================
type          header  payload  contents
============  ======  =======  ==============================
READ_REQ      12      0        8 B address in header
WRITE_REQ     12      64       address + cache line
PT_REQ        12      0        page-table walk read
READ_RSP      4       64       cache line data
WRITE_RSP     4       0        acknowledgement in header
PT_RSP        4       8        translated physical address
============  ======  =======  ==============================

``bytes_required = header + payload``; when segmented into fixed-size
flits, the remainder of the final flit is padding (Observation 1).
Three otherwise-unused address bits are repurposed as *trim* bits: one
"sector request" flag and a two-bit sector offset within the 64 B line
(Section 4.3).

Packet IDs are minted by the component that sends the packet: the
sending GPU's :class:`~repro.memory.rdma.RdmaEngine` stamps ``pid`` on
every request, retry clone and response it injects (``gpu_id + k *
n_gpus``), so IDs are unique within a run and identical in single-engine
and sharded drives.  A packet built elsewhere keeps ``pid = -1``
(unassigned) unless its builder passes one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

CACHE_LINE_BYTES = 64


class PacketType(enum.Enum):
    """The six traffic categories of Table 1, plus two extension types.

    ``INV_REQ``/``INV_RSP`` implement the hardware-coherence extension
    the paper leaves as future work (Section 4.5: "the fine-grained
    nature of hardware coherence traffic presents additional
    opportunities for stitching").  They are not part of the Table 1
    census and only appear when ``SystemConfig.coherence="hardware"``.
    """

    READ_REQ = "read_req"
    READ_RSP = "read_rsp"
    WRITE_REQ = "write_req"
    WRITE_RSP = "write_rsp"
    PT_REQ = "pt_req"
    PT_RSP = "pt_rsp"
    INV_REQ = "inv_req"
    INV_RSP = "inv_rsp"

    #: members are singletons compared by identity, so the identity hash
    #: is consistent with equality; it runs in C, where ``Enum.__hash__``
    #: is a Python call on every dict probe keyed by a type (the egress
    #: ``packets_by_type`` count, the per-type layout tables).  Neither
    #: hash is stable across processes, so nothing may depend on it.
    __hash__ = object.__hash__

    @property
    def is_ptw(self) -> bool:
        """Whether this type belongs to page-table-walk traffic."""
        return self in (PacketType.PT_REQ, PacketType.PT_RSP)


#: Header size per packet type (bytes).  Requests carry a full 12-byte
#: header (4 B metadata + 8 B address); responses carry 4 B of metadata
#: (footnote 2 of the paper).  PT_RSP carries its 8 B physical address as
#: payload, matching Table 1's 12 required bytes.
HEADER_BYTES: Dict[PacketType, int] = {
    PacketType.READ_REQ: 12,
    PacketType.WRITE_REQ: 12,
    PacketType.PT_REQ: 12,
    PacketType.READ_RSP: 4,
    PacketType.WRITE_RSP: 4,
    PacketType.PT_RSP: 4,
    PacketType.INV_REQ: 12,  # 4 B metadata + 8 B line address
    PacketType.INV_RSP: 4,   # acknowledgement in the header
}

#: Default payload size per packet type (bytes), before any trimming.
PAYLOAD_BYTES: Dict[PacketType, int] = {
    PacketType.READ_REQ: 0,
    PacketType.WRITE_REQ: CACHE_LINE_BYTES,
    PacketType.PT_REQ: 0,
    PacketType.READ_RSP: CACHE_LINE_BYTES,
    PacketType.WRITE_RSP: 0,
    PacketType.PT_RSP: 8,
    PacketType.INV_REQ: 0,
    PacketType.INV_RSP: 0,
}

#: per-type ``(header_bytes, payload_bytes, is_ptw)``, folded into one
#: dict so packet construction pays a single Enum-keyed lookup
_TYPE_META: Dict[PacketType, Tuple[int, int, bool]] = {
    t: (HEADER_BYTES[t], PAYLOAD_BYTES[t], t.is_ptw) for t in PacketType
}

#: the Table 1 census covers only the paper's six base categories
TABLE1_TYPES = (
    PacketType.READ_REQ,
    PacketType.WRITE_REQ,
    PacketType.PT_REQ,
    PacketType.READ_RSP,
    PacketType.WRITE_RSP,
    PacketType.PT_RSP,
)

@dataclass(eq=False, slots=True)
class Packet:
    """One network transaction between two GPUs.

    Identity semantics (``eq=False``): two packets are the same only if
    they are the same object, and packets are hashable by identity —
    reassembly and stats code keeps them in sets/dicts.

    ``payload_bytes`` may shrink below the type default when the Trim
    Engine removes unneeded sectors from a READ_RSP; any mutation of the
    payload size must go through :meth:`resize_payload` so the cached
    flit-count layout stays coherent.
    """

    ptype: PacketType
    src_gpu: int
    dst_gpu: int
    addr: int = 0
    payload_bytes: int = -1
    #: bytes the requesting wavefront actually needs from the line
    bytes_needed: int = CACHE_LINE_BYTES
    #: sector offset (in sectors) within the 64 B line, for trim bits
    sector_offset: int = 0
    #: set by the requester when trim bits are encoded in the address field
    trim_allowed: bool = False
    #: sector-cache mode: the requester asks for only its sectors up front
    sector_fetch: bool = False
    #: set on responses: bitmask of 16 B (or configured) sectors actually
    #: carried; ``None`` means the full line
    filled_sector_mask: Optional[int] = None
    #: requester-table tag (header metadata): the requesting RDMA engine
    #: stamps it on a request, the home GPU copies it onto the response
    tag: int = -1
    #: identifier used for flit reassembly and stitching metadata,
    #: stamped by the sending RDMA engine (-1 = unassigned)
    pid: int = -1
    #: filled by the Trim Engine: original payload size before trimming
    original_payload_bytes: Optional[int] = None
    #: cycle the packet was injected into the network (stats)
    inject_cycle: Optional[int] = None
    #: cached ``(flit_size, flit_count, bytes_occupied)`` — packets cross
    #: several links and the stitch scan asks for the layout of every
    #: staged flit's packet, so the ceil-division is paid once per
    #: (packet, flit size)
    _layout: Optional[Tuple[int, int, int]] = field(default=None, repr=False)
    #: header size, resolved once from ``ptype`` (Enum-keyed dict lookups
    #: hash the member name on every probe, which showed up in profiles)
    _hdr: int = field(default=0, repr=False)
    #: cached ``ptype.is_ptw`` (queried per flit on every CQ push)
    _ptw: bool = field(default=False, repr=False)
    #: flits of this packet not yet on the wire at its current hop: the
    #: egress controller sets it when it stages the packet, and the
    #: :class:`~repro.network.link.FlitLink` counts it down and delivers
    #: the packet with the flit that takes it to zero
    _unsent: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        hdr, payload, ptw = _TYPE_META[self.ptype]
        if self.payload_bytes < 0:
            self.payload_bytes = payload
        self._hdr = hdr
        self._ptw = ptw

    @property
    def header_bytes(self) -> int:
        return self._hdr

    @property
    def bytes_required(self) -> int:
        """Useful (non-padding) bytes: header plus payload."""
        return self._hdr + self.payload_bytes

    def resize_payload(self, payload_bytes: int) -> None:
        """Change the payload size, invalidating the cached flit layout.

        The Trim Engine is the only legitimate caller: packets shrink
        before segmentation, never after.
        """
        self.payload_bytes = payload_bytes
        self._layout = None

    @property
    def is_ptw(self) -> bool:
        return self._ptw

    @property
    def trimmed(self) -> bool:
        return self.original_payload_bytes is not None

    def flit_count(self, flit_size: int) -> int:
        """Number of fixed-size flits this packet occupies."""
        layout = self._layout
        if layout is not None and layout[0] == flit_size:
            return layout[1]
        # bytes_required >= 4 (every type has a header), so the ceil
        # division is always at least 1
        count = -(-(self._hdr + self.payload_bytes) // flit_size)
        self._layout = (flit_size, count, count * flit_size)
        return count

    def bytes_occupied(self, flit_size: int) -> int:
        """Total bytes on the wire including padding."""
        layout = self._layout
        if layout is not None and layout[0] == flit_size:
            return layout[2]
        return self.flit_count(flit_size) * flit_size

    def bytes_padded(self, flit_size: int) -> int:
        """Padding bytes appended to fill the final flit."""
        return self.bytes_occupied(flit_size) - self.bytes_required

    # Packets cross the shard boundary inside pickled mail batches every
    # lookahead window; the default slotted-dataclass protocol builds a
    # {slot: value} dict per object, which dominates serialization time.
    # A flat tuple keeps the wire format compact and ~2x faster.
    def __getstate__(self):
        return (
            self.ptype,
            self.src_gpu,
            self.dst_gpu,
            self.addr,
            self.payload_bytes,
            self.bytes_needed,
            self.sector_offset,
            self.trim_allowed,
            self.sector_fetch,
            self.filled_sector_mask,
            self.tag,
            self.pid,
            self.original_payload_bytes,
            self.inject_cycle,
            self._layout,
            self._hdr,
            self._ptw,
            self._unsent,
        )

    def __setstate__(self, state):
        (
            self.ptype,
            self.src_gpu,
            self.dst_gpu,
            self.addr,
            self.payload_bytes,
            self.bytes_needed,
            self.sector_offset,
            self.trim_allowed,
            self.sector_fetch,
            self.filled_sector_mask,
            self.tag,
            self.pid,
            self.original_payload_bytes,
            self.inject_cycle,
            self._layout,
            self._hdr,
            self._ptw,
            self._unsent,
        ) = state


def packet_census_row(ptype: PacketType, flit_size: int = 16) -> Dict[str, int]:
    """Reproduce one row of Table 1 analytically from the packet layout."""
    pkt = Packet(ptype=ptype, src_gpu=0, dst_gpu=1)
    return {
        "bytes_occupied": pkt.bytes_occupied(flit_size),
        "bytes_required": pkt.bytes_required,
        "bytes_padded": pkt.bytes_padded(flit_size),
        "flits_occupied": pkt.flit_count(flit_size),
    }
