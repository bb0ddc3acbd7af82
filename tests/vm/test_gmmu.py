"""Tests for the GMMU: L2 TLB, PWC and parallel walkers."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.stats.collectors import RunStats
from repro.vm.gmmu import Gmmu, WalkRetrySchedule
from repro.vm.page_table import PageTable
from repro.vm.placement import AddressSpace, LaspPlacement
from repro.vm.tlb import PageWalkCache, Tlb


class _Harness:
    def __init__(self, n_walkers=4, pte_delay=50, remote_extra=100):
        self.engine = Engine()
        self.space = AddressSpace(4)
        self.page_table = PageTable(self.space, root_gpu=0)
        self.placement = LaspPlacement(self.space, self.page_table)
        self.stats = RunStats()
        self.pte_delay = pte_delay
        self.remote_extra = remote_extra
        self.pte_accesses = []
        self.gmmu = Gmmu(
            self.engine, "gmmu", gpu_id=0,
            page_table=self.page_table,
            l2_tlb=Tlb(8, assoc=8, lookup_latency=10),
            pwc=PageWalkCache(16, lookup_latency=10),
            pte_access=self._pte_access,
            stats=self.stats,
            n_walkers=n_walkers,
            walk_mshr_entries=8,
        )

    def _pte_access(self, addr, gpu, callback):
        self.pte_accesses.append((addr, gpu))
        delay = self.pte_delay + (self.remote_extra if gpu != 0 else 0)
        self.engine.schedule(delay, callback)

    def map(self, vpn, owner=0):
        self.placement.map_page(vpn, owner)


def test_cold_walk_touches_four_levels():
    h = _Harness()
    h.map(0x100)
    got = []
    h.gmmu.translate(0x100, got.append)
    h.engine.run()
    assert len(got) == 1
    assert h.stats.ptw_walks == 1
    assert h.stats.ptw_pte_accesses == 4
    assert h.stats.ptw_latency.count == 1


def test_l2_tlb_hit_skips_walk():
    h = _Harness()
    h.map(0x100)
    h.gmmu.translate(0x100, lambda p: None)
    h.engine.run()
    h.gmmu.translate(0x100, lambda p: None)
    h.engine.run()
    assert h.stats.ptw_walks == 1  # second translate hit the L2 TLB


def test_pwc_shortens_sibling_walk():
    h = _Harness()
    h.map(0x100)
    h.map(0x101)
    h.gmmu.translate(0x100, lambda p: None)
    h.engine.run()
    before = h.stats.ptw_pte_accesses
    h.gmmu.translate(0x101, lambda p: None)
    h.engine.run()
    # level-3 PWC hit: only the leaf PTE is read
    assert h.stats.ptw_pte_accesses == before + 1


def test_concurrent_same_vpn_walks_merge():
    h = _Harness()
    h.map(0x300)
    got = []
    for _ in range(5):
        h.gmmu.translate(0x300, got.append)
    h.engine.run()
    assert len(got) == 5
    assert h.stats.ptw_walks == 1


def test_walker_pool_limits_parallelism():
    h = _Harness(n_walkers=2)
    for i in range(6):
        h.map(0x1000 + i * 0x400)  # distinct regions -> full walks
    for i in range(6):
        h.gmmu.translate(0x1000 + i * 0x400, lambda p: None)
    h.engine.run(until=25)  # past L2 TLB + PWC latency of first dispatches
    assert h.gmmu._walkers_busy <= 2
    h.engine.run()
    assert h.stats.ptw_walks == 6


def test_remote_pte_accesses_counted():
    h = _Harness()
    h.map(0x500, owner=3)  # leaf on GPU 3 -> remote leaf PTE read
    h.gmmu.translate(0x500, lambda p: None)
    h.engine.run()
    assert h.stats.ptw_remote_pte_accesses >= 1
    assert any(gpu == 3 for _addr, gpu in h.pte_accesses)


def test_translation_result_correct():
    h = _Harness()
    h.map(0x200, owner=1)
    expected = h.page_table.translate_vpn(0x200)
    got = []
    h.gmmu.translate(0x200, got.append)
    h.engine.run()
    assert got == [expected]


def test_walk_mshr_full_retries():
    h = _Harness(n_walkers=1)
    for i in range(12):
        h.map(0x2000 + i * 0x400)
    got = []
    for i in range(12):
        h.gmmu.translate(0x2000 + i * 0x400, got.append)
    h.engine.run()
    assert len(got) == 12


# -- walk-MSHR back-pressure ---------------------------------------------------


class PollingGmmu(Gmmu):
    """Reference: the 8-cycle re-poll of a translation that found the walk
    MSHR full, one event per poll until it gets through."""

    def _after_l2_tlb(self, vpn, callback):
        if not self._attempt(vpn, callback):
            self.schedule(8, self._after_l2_tlb, vpn, callback)


def _node(gmmu_cls, n_gmmus, n_walkers, mshr_entries, pte_delays):
    """``n_gmmus`` GMMUs on one engine sharing one page table and one retry
    schedule; each PTE read takes the next delay from ``pte_delays``
    (cycling), in the order the reads are made."""
    engine = Engine()
    space = AddressSpace(4)
    page_table = PageTable(space, root_gpu=0)
    placement = LaspPlacement(space, page_table)
    retries = WalkRetrySchedule(engine)
    delays = itertools.cycle(pte_delays)

    def pte_access(_addr, _gpu, callback):
        engine.schedule(next(delays), callback)

    gmmus = [
        gmmu_cls(
            engine, f"gmmu{g}", gpu_id=g,
            page_table=page_table,
            l2_tlb=Tlb(4, assoc=4, lookup_latency=10),
            pwc=PageWalkCache(4, lookup_latency=10),
            pte_access=pte_access,
            stats=RunStats(),
            n_walkers=n_walkers,
            walk_mshr_entries=mshr_entries,
            walk_retries=retries,
        )
        for g in range(n_gmmus)
    ]
    return engine, placement, gmmus


def _completions(gmmu_cls, n_gmmus, n_walkers, mshr_entries, pte_delays, requests):
    engine, placement, gmmus = _node(gmmu_cls, n_gmmus, n_walkers, mshr_entries, pte_delays)
    for vpn in {vpn for _cycle, _g, vpn in requests}:
        placement.map_page(vpn, vpn % 4)
    done = []
    for cycle, g, vpn in requests:
        engine.schedule_at(
            cycle, gmmus[g % n_gmmus].translate, vpn,
            lambda _paddr, g=g % n_gmmus, vpn=vpn: done.append((engine.now, g, vpn)),
        )
    engine.run()
    assert not any(gmmu._parked for gmmu in gmmus)
    return done


@settings(max_examples=150, deadline=None)
@given(
    n_gmmus=st.integers(1, 2),
    n_walkers=st.integers(1, 2),
    mshr_entries=st.integers(1, 4),
    # PTE reads complete in L2/DRAM events or link deliveries: >= 9 cycles
    pte_delays=st.lists(st.integers(9, 120), min_size=1, max_size=6),
    # a stride of 4 puts many failed attempts in one retry phase, where
    # both GMMUs' retries fall due in the same cycles
    stride=st.sampled_from([1, 4]),
    requests=st.lists(
        st.tuples(
            st.integers(0, 100),
            st.integers(0, 1),
            # few distinct pages in a few 2 MB regions: repeated VPNs merge
            # and hit, sibling pages share PWC prefixes
            st.sampled_from([0x100, 0x101, 0x102, 0x900, 0x901, 0x4100, 0x8100]),
        ),
        min_size=10,
        max_size=40,
    ),
)
# two GMMUs whose retries succeed in the same cycle: per-GMMU retry events
# would run them in wake order rather than chain order
@example(
    n_gmmus=2, n_walkers=2, mshr_entries=2, pte_delays=[29, 91, 47], stride=4,
    requests=[
        (2, 1, 0x102), (5, 0, 0x102), (6, 0, 0x100), (6, 0, 0x100), (6, 0, 0x100),
        (6, 0, 0x900), (9, 1, 0x100), (9, 1, 0x101), (10, 1, 0x900), (11, 0, 0x101),
    ],
)
def test_parking_completes_in_the_polling_order(
    n_gmmus, n_walkers, mshr_entries, pte_delays, stride, requests
):
    requests = [(cycle * stride, g, vpn) for cycle, g, vpn in requests]
    args = (n_gmmus, n_walkers, mshr_entries, pte_delays, requests)
    assert _completions(Gmmu, *args) == _completions(PollingGmmu, *args)


def _one_slow_walk(gmmu_cls):
    """One walk MSHR entry held by a single 500-cycle leaf read, and a
    second translation arriving behind it."""
    engine, placement, (gmmu,) = _node(gmmu_cls, 1, 1, 1, [10])
    for vpn in (0x100, 0x101, 0x102):
        placement.map_page(vpn, 0)
    gmmu.translate(0x100, lambda p: None)
    engine.run()  # warms the PWC: later walks in the region read one PTE
    gmmu.pte_access = lambda _addr, _gpu, callback: engine.schedule(500, callback)
    start = engine.now
    done = []
    gmmu.translate(0x101, lambda p: done.append(engine.now))
    engine.schedule(1, gmmu.translate, 0x102, lambda p: done.append(engine.now))
    # 0x101 allocates at +10 and walks from +20 to +520; 0x102 finds the
    # MSHR full at +11
    engine.run(until=start + 20)
    window_start = engine.events_processed
    engine.run(until=start + 519)
    in_window = engine.events_processed - window_start
    engine.run()
    assert done[0] == start + 520
    return in_window, done[1] - start


def test_parked_translation_dispatches_no_event_while_the_mshr_is_full():
    in_window, second_done = _one_slow_walk(Gmmu)
    assert in_window == 0
    polled, polled_done = _one_slow_walk(PollingGmmu)
    assert polled == 62  # one poll every 8 cycles, +27 to +515
    assert second_done == polled_done


@pytest.mark.parametrize("gmmu_cls", [Gmmu, PollingGmmu])
def test_retry_tied_with_the_waking_event_runs_after_it_in_that_cycle(gmmu_cls):
    """A walk finishing in an event scheduled exactly 8 cycles earlier
    shares its key ``(p, p - 8)`` with a retry slot: the retry runs in
    that cycle, after the event that freed the MSHR entry."""
    engine, placement, (gmmu,) = _node(gmmu_cls, 1, 1, 1, [8])
    for vpn in (0x100, 0x101, 0x102):
        placement.map_page(vpn, 0)
    gmmu.translate(0x100, lambda p: None)
    engine.run()  # warms the PWC: later walks in the region read one PTE
    a = engine.now + 10
    done = {}
    # 0x101 allocates at a; its walk starts at a + 10 and its one 8-cycle
    # read completes in an event keyed (a + 18, a + 10)
    gmmu.translate(0x101, lambda p: done.setdefault(0x101, engine.now))
    # 0x102 fails at a + 2; its retry slots are a + 10 and a + 18, the
    # latter keyed (a + 18, a + 10) too
    engine.schedule(2, gmmu.translate, 0x102, lambda p: done.setdefault(0x102, engine.now))
    engine.run()
    assert done[0x101] == a + 18
    # allocated at a + 18, walked from a + 28, read done at a + 36
    assert done[0x102] == a + 36
