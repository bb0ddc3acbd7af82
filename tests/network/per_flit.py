"""Per-flit delivery and receiver-side reassembly: the test reference.

Inter-cluster links complete packets on the sending side (see
:class:`~repro.network.link.FlitLink`).  This module keeps the model it
replaced, for tests to compare against: :class:`PerFlitLink` hands
every wire flit that arrives — a corrupted copy flagged as such — to a
receiver at its arrival cycle, and :class:`ReassemblyBuffer` checks
the CRC verdict, un-stitches the flit and completes each packet once
all of its flit indices arrived, as the paper's receiving Stitch
Engine does with the ID/Size metadata.
"""

from typing import Callable, Dict

from repro.faults.process import FATE_CORRUPT, FATE_DROP, FATE_OK
from repro.network.flit import DuplicateFlitError, Flit
from repro.network.link import DELIVERY_SKEY_BASE, FlitLink
from repro.network.packet import Packet


class ReassemblyBuffer:
    """Reassembles packets from every wire flit arriving on a link.

    A corrupted copy counts ``crc_fail`` and is discarded whole (its
    stitched segments included); a clean one counts ``crc_ok`` and is
    un-stitched, every absorbed flit counting toward its own packet.
    Per packet, a bitmask records which flit indices have arrived; the
    packet completes when every index is present, and a repeated or
    out-of-range index raises :class:`DuplicateFlitError` immediately.
    Masks are keyed by ``pid``, so every packet must be numbered: an
    unnumbered one (``pid == -1``) raises ``ValueError`` rather than
    share a mask with every other unnumbered packet.
    """

    def __init__(self, flit_size: int, on_packet: Callable[[Packet], None]) -> None:
        self.flit_size = flit_size
        self.on_packet = on_packet
        #: pid -> bitmask of flit indices received so far
        self._received: Dict[int, int] = {}
        self.flits_unstitched = 0
        self.packets_reassembled = 0
        self.crc_ok = 0
        self.crc_fail = 0

    def receive(self, flit: Flit, corrupt: bool = False) -> None:
        """Account one arriving wire flit (plus anything stitched in it)."""
        if corrupt:
            self.crc_fail += 1
            return
        self.crc_ok += 1
        self._account(flit)
        segments = flit.segments
        if segments:
            self.flits_unstitched += len(segments)
            for segment in segments:
                self._account(segment.flit)

    def _account(self, flit: Flit) -> None:
        packet = flit.packet
        if packet.pid == -1:
            raise ValueError(
                f"flit {flit.fid} belongs to an unnumbered packet (pid -1); "
                "give each packet its own pid before reassembling it"
            )
        expected = packet.flit_count(self.flit_size)
        index = flit.index
        if index >= expected:
            raise DuplicateFlitError(
                f"flit {flit.fid} has index {index} but packet "
                f"{packet.pid} only occupies {expected} flit(s)"
            )
        bit = 1 << index
        mask = self._received.get(packet.pid, 0)
        if mask & bit:
            raise DuplicateFlitError(
                f"flit index {index} of packet {packet.pid} delivered "
                f"twice (flit {flit.fid})"
            )
        mask |= bit
        if mask != (1 << expected) - 1:
            self._received[packet.pid] = mask
            return
        self._received.pop(packet.pid, None)
        self.packets_reassembled += 1
        self.on_packet(packet)

    def pending_packets(self) -> int:
        """Packets with some but not all flits received."""
        return len(self._received)


class PerFlitLink(FlitLink):
    """A :class:`FlitLink` that also delivers every arriving wire flit.

    Each transmission that is not dropped reaches ``receiver(flit,
    corrupt)`` at its arrival cycle.  Its same-cycle schedule key counts
    the arriving copies on this link, numbered here and not by the
    link, so the reference pins the sequence numbers the link's own
    deliveries must keep.  Timing, pacing, fates and retransmissions
    are the link's; the packets it completes go to a sink that ignores
    them.
    """

    def __init__(
        self,
        engine,
        name: str,
        bytes_per_cycle: float,
        latency: int,
        receiver: Callable[[Flit, bool], None],
    ) -> None:
        super().__init__(engine, name, bytes_per_cycle, latency, sink=_ignore)
        self.receiver = receiver
        self.arrivals = 0

    def send(self, flit: Flit, attempt: int = 0, first_cycle: int = 0) -> None:
        # fates are a pure function of the flit and the attempt
        fate = FATE_OK if self._faults is None else self._faults.fate(flit, attempt)
        super().send(flit, attempt, first_cycle)
        if fate == FATE_DROP:
            return
        num, den = self._bpc_num, self._bpc_den
        arrival = self._anchor - ((-self._sent_bytes * den) // num) + self.latency
        seq = self.arrivals
        self.arrivals = seq + 1
        skey = DELIVERY_SKEY_BASE + seq * self.delivery_span + self.delivery_rank
        self.engine.inject(arrival, skey, self.receiver, flit, fate == FATE_CORRUPT)


def _ignore(flit: Flit, done: int) -> None:
    pass


def staged(flits):
    """Stage ``flits``' packet as an egress controller does; returns them."""
    flits[0].packet._unsent = len(flits)
    return flits
