"""Regression: degraded-bandwidth busy time must not drift.

``LinkStats.busy_extra`` used to accumulate a per-flit float delta
(``size/degraded - size/nominal``) for every transmission inside a
bandwidth flap.  Over a long flap the float accumulation drifts —
measurably past 1e-9 cycles within tens of thousands of flits — which
is exactly the accumulation error the exact-integer link timekeeping
was built to eliminate.  Degraded transmissions are now tracked as
integer bytes per ``(num, den, nom_num, nom_den)`` rate regime and
divided once at query time.
"""

from fractions import Fraction

import pytest

from repro.faults.config import FaultConfig, FlapWindow
from repro.faults.process import LinkFaultProcess
from repro.network.flit import segment_packet
from repro.network.link import FlitLink, LinkStats
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine
from repro.stats.collectors import FaultStats

#: 16 B flits at nominal 16 B/cycle, degraded to 4.8 B/cycle — the
#: per-flit extra is 10/3 - 1 cycles, inexact in binary floating point,
#: so per-flit accumulation visibly drifts
NOMINAL = 16.0
DEGRADED = 4.8
FLITS = 50_000
SIZE = 16


def _exact_extra(n_flits: int) -> Fraction:
    total = n_flits * SIZE
    return Fraction(total) / Fraction(DEGRADED) - Fraction(total) / Fraction(
        NOMINAL
    )


def test_long_flap_busy_extra_is_exact_where_accumulation_drifts():
    stats = LinkStats(NOMINAL)
    num, den = DEGRADED.as_integer_ratio()
    nom_num, nom_den = NOMINAL.as_integer_ratio()
    for _ in range(FLITS):
        stats.add_degraded_bytes(SIZE, num, den, nom_num, nom_den)

    exact = float(_exact_extra(FLITS))
    assert abs(stats.busy_extra - exact) < 1e-9

    # the old implementation's per-flit float accumulation, run over the
    # same transmissions, drifts well past that bound — the bug
    drifted = 0.0
    for _ in range(FLITS):
        drifted += SIZE * den / num - SIZE * nom_den / nom_num
    assert abs(drifted - exact) > 1e-9


def test_busy_extra_sums_across_rate_regimes():
    stats = LinkStats(NOMINAL)
    stats.busy_bytes = 64  # what the transmissions booked at nominal rate
    stats.add_degraded_bytes(32, *(8.0).as_integer_ratio(), *(16.0).as_integer_ratio())
    stats.add_degraded_bytes(32, *(4.0).as_integer_ratio(), *(16.0).as_integer_ratio())
    # 32 B at 8 vs 16 B/c: +2 cycles; 32 B at 4 vs 16 B/c: +6 cycles
    assert stats.busy_extra == pytest.approx(8.0)
    assert stats.busy_cycles == pytest.approx(64 / 16 + 8.0)


def _flit(addr):
    """A staged single-flit packet, as an egress controller stages it."""
    packet = Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=2, addr=addr)
    packet.inject_cycle = 0
    (flit,) = segment_packet(packet, SIZE)
    packet._unsent = 1
    return flit


def test_end_to_end_flap_matches_closed_form():
    """A wire flapped for its whole lifetime reports the closed-form
    extra busy time to within one division's rounding, however many
    flits crossed it."""
    n_flits = 2_000
    config = FaultConfig(flaps=(FlapWindow(0, 10**9, DEGRADED / NOMINAL),))
    engine = Engine()
    link = FlitLink(engine, "l", NOMINAL, 2, lambda flit, done: None)
    link.attach_faults(LinkFaultProcess(config, "l", SIZE), FaultStats())
    # one flit every 4 cycles: 16 B at 4.8 B/cycle frees the wire in
    # 10/3 cycles, so every send sees a ready link
    for i in range(n_flits):
        engine.schedule_at(4 * i, link.send, _flit(addr=0x40 + 0x40 * i))
    engine.run()

    assert link.stats.flits == n_flits
    assert abs(link.stats.busy_extra - float(_exact_extra(n_flits))) < 1e-9
    # and the derived busy time can never exceed wall-clock elapsed
    was = LinkStats.strict
    LinkStats.strict = True
    try:
        assert link.stats.utilization(engine.now) <= 1.0
    finally:
        LinkStats.strict = was
