"""Per-link fault processes.

:class:`LinkFaultProcess` decides every wire transmission's fate —
delivered clean, corrupted in flight, or dropped — as a pure function of
stable packet content (never of packet/flit *IDs*, which are allocated
in per-shard strides and differ between execution modes, and never of
RNG call order).  Two transmissions of the same flit differ only in the
``attempt`` counter, so a retransmission redraws its fate.

The sending :class:`~repro.network.link.FlitLink` draws the fate and
acts on it: a corrupted copy fails the receiver's CRC check and a
dropped one never arrives, so neither is delivered, and the sender
schedules the retransmission from its own clock.  No fault state is
shared with the receiver, which under windowed sharding may run in
another shard.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults.config import FaultConfig
from repro.faults.rng import fault_hash, probability_threshold, string_salt

#: transmission fates returned by :meth:`LinkFaultProcess.fate`
FATE_OK = 0
FATE_CORRUPT = 1
FATE_DROP = 2


class LinkFaultProcess:
    """Order-independent fault decisions for one directed link.

    The decision key chains the fault seed, a salt of the link's
    topology name (identical across execution modes — unlike object
    identity), and the transmission's stable content: packet address,
    inject cycle, endpoints, packet type, flit index, and the attempt
    number.  Packet IDs are deliberately excluded: a retry clone gets a
    fresh ID, and the fate must follow the content, not its numbering.
    """

    __slots__ = (
        "config",
        "link_name",
        "_salt",
        "_t_drop",
        "_t_corrupt",
        "_ptype_ord",
    )

    def __init__(self, config: FaultConfig, link_name: str, flit_size: int) -> None:
        self.config = config
        self.link_name = link_name
        self._salt = fault_hash(config.seed, string_salt(link_name))
        self._t_drop = probability_threshold(config.drop_rate)
        # a flit survives only if all of its bits do
        p_corrupt = 1.0 - (1.0 - config.ber) ** (8 * flit_size)
        self._t_corrupt = probability_threshold(p_corrupt)
        #: enum member -> declaration index, built lazily so this module
        #: needs no import from repro.network (declaration order is
        #: stable across processes, unlike ``hash``)
        self._ptype_ord: Dict[object, int] = {}

    def _ptype_ordinal(self, ptype) -> int:
        ordinal = self._ptype_ord.get(ptype)
        if ordinal is None:
            ordinal = list(type(ptype)).index(ptype)
            self._ptype_ord[ptype] = ordinal
        return ordinal

    def fate(self, flit, attempt: int) -> int:
        """The fate of transmitting ``flit`` for the ``attempt``-th time."""
        packet = flit.packet
        draw = fault_hash(
            self._salt,
            packet.addr,
            packet.inject_cycle,
            (packet.src_gpu << 20) ^ packet.dst_gpu,
            self._ptype_ordinal(packet.ptype),
            (flit.index << 8) ^ attempt,
        )
        if draw < self._t_drop:
            return FATE_DROP
        if draw < self._t_drop + self._t_corrupt:
            return FATE_CORRUPT
        return FATE_OK

    def regime_edges(
        self, bytes_per_cycle: float
    ) -> List[Tuple[int, int, int, bool]]:
        """Bandwidth-regime switch points for a link of nominal rate
        ``bytes_per_cycle``: ``(cycle, bpc_num, bpc_den, degraded)``.

        Each flap window contributes a degraded edge at its start and a
        nominal-restore edge at its end; rates are exact integer ratios
        so link timekeeping stays drift-free through every switch.
        """
        nom_num, nom_den = float(bytes_per_cycle).as_integer_ratio()
        edges: List[Tuple[int, int, int, bool]] = []
        for window in self.config.flaps:
            deg_num, deg_den = float(
                bytes_per_cycle * window.factor
            ).as_integer_ratio()
            edges.append((window.start, deg_num, deg_den, True))
            edges.append((window.end, nom_num, nom_den, False))
        return edges
