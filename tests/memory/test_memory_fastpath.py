"""Differential tests: the inlined L2, DRAM and CU L1-fill paths against
references built from the tag-store, MSHR and DRAM primitives.

The hot paths do the tag lookup, install, dirty marking, MSHR allocation
and release, and the DRAM channel start inline.  Each reference below
is a test-local subclass that routes the same requests through
``SectorCache.lookup/fill/mark_dirty/write``, ``Mshr.allocate/release``
and a separate DRAM start, the way those paths were written before.
Random request streams run through both on small geometries (few sets
and ways, a tiny MSHR, two DRAM channels) so that evictions, dirty
write-backs, merges, full-MSHR stalls and DRAM queueing all happen; the
completions (order and cycle), the tag stores in LRU order with their
valid and dirty bits, and every counter must agree.  CI reruns this file
under ``--hypothesis-profile=ci`` (``tests/conftest.py``) for ten times
the examples.
"""

from __future__ import annotations

import math
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.gpu.cta import MemAccess
from repro.gpu.cu import ComputeUnit
from repro.gpu.gpu import Gpu
from repro.memory.cache import SectorCache
from repro.memory.dram import Dram
from repro.memory.l2 import L2Cache
from repro.sim.engine import Engine
from repro.stats.collectors import RunStats
from repro.vm.page_table import PageTable
from repro.vm.placement import AddressSpace

LINE = 64


# -- references ----------------------------------------------------------------


class _RefDram(Dram):
    """DRAM whose ``access`` queues or starts a channel through ``_start``."""

    def access(self, nbytes, callback, is_write=False):
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_transferred += nbytes
        if self._in_flight >= self.max_outstanding:
            self._waiting.append((nbytes, callback))
            return
        self._start(nbytes, callback)

    def _start(self, nbytes, callback):
        self._in_flight += 1
        transfer = math.ceil(nbytes / self.bytes_per_cycle)
        self.schedule(self.latency + transfer, self._complete, callback)

    def _complete(self, callback):
        self._in_flight -= 1
        if self._waiting:
            nbytes, waiting_cb = self._waiting.popleft()
            self._start(nbytes, waiting_cb)
        callback()


class _RefL2(L2Cache):
    """L2 built from ``SectorCache.lookup/fill/mark_dirty`` and
    ``Mshr.allocate/release``."""

    def _lookup(self, addr, nbytes, is_write, callback):
        line = addr - addr % self.line_bytes
        if is_write:
            self.tags.lookup(addr)
            evicted = self.tags.fill(line)
            self.tags.mark_dirty(line)
            self._writeback(evicted)
            callback()
            return
        if self.tags.lookup(addr) == "hit":
            callback()
            return
        self._handle_miss(line, callback)

    def _handle_miss(self, line, callback):
        status = self.mshr.allocate(line, callback)
        if status == "merged":
            return
        if status == "full":
            self._stalled.append((line, callback))
            return
        self.dram.access(self.line_bytes, partial(self._fill, line))

    def _fill(self, line):
        self._writeback(self.tags.fill(line))
        for waiter in self.mshr.release(line):
            waiter()
        while self._stalled and not self.mshr.is_full:
            self._handle_miss(*self._stalled.popleft())

    def _writeback(self, evicted):
        if evicted is not None and evicted.dirty:
            self.dram.access(self.line_bytes, _ignore, is_write=True)


class _LoggedCu(ComputeUnit):
    """A CU whose wavefront continuation logs each retired access."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _advance(self, wf):
        self.log.append((wf.tag, self.engine.now))


class _RefCu(_LoggedCu):
    """CU whose fill and write paths go through ``SectorCache.fill/write``,
    ``Mshr.allocate/release`` and the GPU's directory hooks (no-ops
    without a directory)."""

    def _do_write(self, wf, access, pa):
        self.l1.write(pa, access.nbytes)
        line_pa = pa - pa % self.l1.line_bytes
        home = self.gpu.address_space.home_of(line_pa)
        assert home == self.gpu.gpu_id  # the streams below stay local
        self.stats.local_writes += 1
        self.gpu.coherence_write(line_pa, self.gpu.gpu_id)
        self.gpu.l2.request(line_pa, self.config.line_bytes, True, _ignore)
        self._resume(wf)

    def _fetch(self, access, pa, needed_mask, on_ready):
        line_pa = pa - pa % self.l1.line_bytes
        sector_fetch = self.config.l1_fetch_mode == "sector"
        fetch_mask = needed_mask if sector_fetch else self.l1.full_mask
        key = (line_pa, fetch_mask)
        status = self.mshr.allocate(key, (needed_mask, access, pa, on_ready))
        if status == "merged":
            return
        if status == "full":
            self.stats.l1_mshr_stall_retries += 1
            self.schedule(8, self._fetch, access, pa, needed_mask, on_ready)
            return
        assert self.gpu.address_space.home_of(line_pa) == self.gpu.gpu_id
        self.stats.local_reads += 1
        self.gpu.record_sharer(line_pa, self.gpu.gpu_id)
        self.gpu.l2.request(
            line_pa,
            self.config.line_bytes,
            False,
            partial(self._fill, key, line_pa, fetch_mask if sector_fetch else None),
        )

    def _fill(self, key, line_pa, mask):
        filled_mask = mask if mask is not None else self.l1.full_mask
        self.l1.fill(line_pa, filled_mask)
        for needed_mask, access, pa, on_ready in self.mshr.release(key):
            if needed_mask & filled_mask == needed_mask:
                on_ready()
            else:
                self.stats.l1_refetches += 1
                self.schedule(0, self._fetch, access, pa, needed_mask, on_ready)


def _ignore():
    """Completion sink."""


# -- observations -------------------------------------------------------------


def _tag_store(cache: SectorCache):
    """Every non-empty set's lines, LRU first, with valid and dirty bits."""
    return {
        index: [(tag, line.valid_sectors, line.dirty) for tag, line in lines.items()]
        for index, lines in sorted(cache._sets.items())
        if lines
    }


def _cache_counters(cache: SectorCache):
    return (
        cache.hits,
        cache.misses,
        cache.sector_misses,
        cache.fills,
        cache.evictions,
        cache.dirty_evictions,
    )


def _mshr_counters(mshr):
    return (mshr.merges, mshr.allocations, mshr.full_stalls, len(mshr))


def _l2_state(l2: L2Cache, dram: Dram):
    return {
        "tags": _tag_store(l2.tags),
        "tag_counters": _cache_counters(l2.tags),
        "mshr": _mshr_counters(l2.mshr),
        "stalled": len(l2._stalled),
        "requests": (l2.read_requests, l2.write_requests),
        "dram": (dram.reads, dram.writes, dram.bytes_transferred, dram.outstanding),
    }


# -- L2 ------------------------------------------------------------------------

#: (kind, line index, offset in line, issue gap in cycles)
_L2_OPS = st.lists(
    st.tuples(
        st.sampled_from(("read", "pte", "write")),
        st.integers(0, 23),
        st.integers(0, LINE - 8),
        st.integers(0, 4),
    ),
    max_size=60,
)


def _run_l2(l2_cls, dram_cls, ops, seeded):
    engine = Engine()
    dram = dram_cls(engine, "dram", latency=7, max_outstanding=2)
    l2 = l2_cls(
        engine, "l2", dram=dram, size_bytes=2 * 4 * LINE, ways=2, banks=2,
        lookup_latency=3, mshr_entries=2, line_bytes=LINE,
    )
    # lines present before the stream: no valid sector (a later lookup
    # is a sector miss) and/or dirty
    for line_index, dirty in seeded:
        l2.tags.fill(line_index * LINE, sector_mask=0)
        if dirty:
            l2.tags.mark_dirty(line_index * LINE)
    log = []
    cycle = 0
    for i, (kind, line_index, offset, gap) in enumerate(ops):
        cycle += gap
        addr = line_index * LINE + offset
        nbytes = 8 if kind == "pte" else LINE
        done = partial(lambda tag: log.append((tag, engine.now)), i)
        engine.schedule_at(cycle, l2.request, addr, nbytes, kind == "write", done)
    engine.run()
    return log, engine.events_processed, _l2_state(l2, dram)


@settings(deadline=None)
@given(
    ops=_L2_OPS,
    seeded=st.lists(st.tuples(st.integers(0, 23), st.booleans()), max_size=4),
)
def test_l2_matches_primitive_reference(ops, seeded):
    fast = _run_l2(L2Cache, Dram, ops, seeded)
    ref = _run_l2(_RefL2, _RefDram, ops, seeded)
    assert fast == ref
    log, _events, _state = fast
    assert sorted(tag for tag, _ in log) == list(range(len(ops)))


def test_l2_stream_exercises_every_branch():
    """One fixed stream reaches a sector miss, merges, evictions, dirty
    write-backs and full-MSHR stalls."""
    ops = [("read", 20, 0, 0), ("read", 5, 0, 0), ("read", 5, 8, 0)]
    ops += [("read", i % 12, 0, 0) for i in range(12)]
    ops += [("write", i, 0, 1) for i in range(8)]
    ops += [("read", i, 8, 0) for i in range(16, 24)]
    ops += [("pte", 1, 16, 0), ("read", 1, 0, 0)]
    fast = _run_l2(L2Cache, Dram, ops, [(20, True)])
    assert fast == _run_l2(_RefL2, _RefDram, ops, [(20, True)])
    state = fast[2]
    hits, misses, sector_misses, _, evictions, dirty_evictions = state["tag_counters"]
    merges, allocations, full_stalls, _ = state["mshr"]
    assert hits and misses and sector_misses and evictions and dirty_evictions
    assert merges and allocations and full_stalls
    assert state["dram"][1] == dirty_evictions  # posted write-backs


# -- CU L1 fill ----------------------------------------------------------------


class _Wf:
    """Stand-in wavefront: the logged ``_advance`` only reads its tag."""

    __slots__ = ("tag", "outstanding")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.outstanding = 1


_CU_STATS = (
    "local_reads",
    "local_writes",
    "l1_hits",
    "l1_misses",
    "l1_sector_misses",
    "l1_refetches",
    "l1_mshr_stall_retries",
)


def _run_cu(cu_cls, ops, fetch_mode, coherence):
    config = SystemConfig.default().with_overrides(
        l1_size=2 * 4 * LINE,
        l1_ways=2,
        l1_mshr_entries=2,
        l1_fetch_mode=fetch_mode,
        l2_size=2 * 8 * LINE,
        l2_ways=2,
        l2_banks=2,
        l2_latency=3,
        l2_mshr_entries=2,
        dram_latency=7,
        dram_max_outstanding=2,
        coherence=coherence,
    )
    engine = Engine()
    space = AddressSpace(config.n_gpus)
    stats = RunStats()
    gpu = Gpu(engine, "gpu0", 0, config, stats, space, PageTable(space))
    base = space.alloc_frame(0)
    cu = cu_cls(engine, "gpu0.cut", gpu, 0, config, stats)
    cycle = 0
    for i, (is_write, line_index, offset, nbytes, gap) in enumerate(ops):
        cycle += gap
        nbytes = min(nbytes, LINE - offset)
        pa = base + line_index * LINE + offset
        access = MemAccess(pa, nbytes, is_write)
        engine.schedule_at(cycle, cu._l1_access, _Wf(i), access, pa)
    engine.run()
    lines = sorted({base + line_index * LINE for _, line_index, *_ in ops})
    sharers = (
        [sorted(gpu.directory.sharers_of(line)) for line in lines]
        if gpu.directory is not None
        else None
    )
    return {
        "log": cu.log,
        "events": engine.events_processed,
        "l1": _tag_store(cu.l1),
        "l1_counters": _cache_counters(cu.l1),
        "l1_mshr": _mshr_counters(cu.mshr),
        "stats": tuple(getattr(stats, name) for name in _CU_STATS),
        "l2": _l2_state(gpu.l2, gpu.dram),
        "sharers": sharers,
    }


#: (write?, line index, offset in line, bytes, issue gap in cycles)
_CU_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 19),
        st.integers(0, LINE - 1),
        st.integers(1, LINE),
        st.integers(0, 3),
    ),
    max_size=50,
)


@settings(deadline=None)
@given(
    ops=_CU_OPS,
    fetch_mode=st.sampled_from(("line", "sector")),
    coherence=st.sampled_from(("software", "hardware")),
)
def test_cu_l1_fill_matches_primitive_reference(ops, fetch_mode, coherence):
    fast = _run_cu(_LoggedCu, ops, fetch_mode, coherence)
    ref = _run_cu(_RefCu, ops, fetch_mode, coherence)
    assert fast == ref
    assert sorted(tag for tag, _ in fast["log"]) == list(range(len(ops)))


def test_cu_stream_exercises_sector_misses_and_stalls():
    """Sector fetch on a two-entry MSHR: merges, stalls, a sector miss,
    evictions and written lines under the directory."""
    ops = [(False, 0, 16 * (i % 2), 8, 0) for i in range(8)]
    ops += [(False, 0, 0, 8, 60), (False, 0, 32, 8, 0)]
    ops += [(False, i, 0, 64, 0) for i in (4, 8, 12, 16)]
    ops += [(True, 0, 0, 8, 60), (True, 12, 0, 8, 0), (False, 16, 0, 8, 2)]
    fast = _run_cu(_LoggedCu, ops, "sector", "hardware")
    assert fast == _run_cu(_RefCu, ops, "sector", "hardware")
    _, local_writes, hits, misses, sector_misses, _, stalls = fast["stats"]
    assert local_writes and hits and misses and sector_misses and stalls
    merges, _, full_stalls, _ = fast["l1_mshr"]
    assert merges and full_stalls
    assert fast["l1_counters"][4]  # evictions
