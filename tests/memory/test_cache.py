"""Tests for the sector-capable set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import (
    SectorCache,
    full_sector_mask,
    sector_mask_for,
)


def _cache(size=1024, ways=2, line=64, sector=16):
    return SectorCache(size_bytes=size, ways=ways, line_bytes=line, sector_bytes=sector)


class TestSectorMasks:
    def test_full_mask(self):
        assert full_sector_mask(64, 16) == 0b1111
        assert full_sector_mask(64, 8) == 0xFF

    def test_single_sector(self):
        assert sector_mask_for(0, 8, 64, 16) == 0b0001
        assert sector_mask_for(16, 16, 64, 16) == 0b0010
        assert sector_mask_for(48, 16, 64, 16) == 0b1000

    def test_spanning_sectors(self):
        assert sector_mask_for(8, 16, 64, 16) == 0b0011
        assert sector_mask_for(0, 64, 64, 16) == 0b1111

    def test_zero_bytes_touches_one_sector(self):
        assert sector_mask_for(20, 0, 64, 16) == 0b0010

    def test_invalid_offset(self):
        with pytest.raises(ValueError):
            sector_mask_for(64, 4, 64, 16)

    @given(offset=st.integers(0, 63), nbytes=st.integers(1, 64))
    def test_mask_contiguous_and_covering(self, offset, nbytes):
        mask = sector_mask_for(offset, nbytes, 64, 16)
        assert mask != 0
        # mask bits are contiguous
        low = mask & -mask
        assert (mask // low + 1) & (mask // low) == 0
        # first touched sector is set
        assert mask & (1 << (offset // 16))


class TestBasicCache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SectorCache(size_bytes=1000, ways=3, line_bytes=64)
        with pytest.raises(ValueError):
            SectorCache(size_bytes=1024, ways=2, line_bytes=64, sector_bytes=48)

    def test_miss_then_hit_after_fill(self):
        c = _cache()
        assert c.lookup(0x100) == "miss"
        c.fill(0x100)
        assert c.lookup(0x100) == "hit"
        assert c.hits == 1 and c.misses == 1

    def test_same_line_different_offsets_hit(self):
        c = _cache()
        c.fill(0x100)
        assert c.lookup(0x13F) == "hit"

    def test_lru_eviction(self):
        c = _cache(size=256, ways=2, line=64)  # 2 sets
        # addresses mapping to set 0: line index multiples of 2
        a, b, d = 0x000, 0x080, 0x100
        c.fill(a)
        c.fill(b)
        c.lookup(a)  # touch a so b is LRU
        evicted = c.fill(d)
        assert evicted is not None
        assert c.lookup(b) == "miss"
        assert c.lookup(a) == "hit"

    def test_eviction_returns_dirty_state(self):
        c = _cache(size=128, ways=1, line=64)
        c.fill(0x000)
        c.mark_dirty(0x000)
        evicted = c.fill(0x400)
        assert evicted.dirty
        assert c.dirty_evictions == 1

    def test_write_updates_only_present_lines(self):
        c = _cache()
        assert not c.write(0x100, 8)  # no-allocate
        c.fill(0x100)
        assert c.write(0x100, 8)

    def test_invalidate(self):
        c = _cache()
        c.fill(0x100)
        assert c.invalidate(0x100)
        assert not c.invalidate(0x100)
        assert c.lookup(0x100) == "miss"

    def test_clear_keeps_statistics(self):
        c = _cache()
        c.fill(0x100)
        c.lookup(0x100)
        hits_before = c.hits
        c.clear()
        assert c.occupancy() == 0
        assert c.hits == hits_before
        assert c.lookup(0x100) == "miss"

    def test_probe_does_not_touch_stats(self):
        c = _cache()
        assert c.probe(0x100) is None
        c.fill(0x100)
        assert c.probe(0x100) is not None
        assert c.hits == 0 and c.misses == 0


class TestSectoredBehaviour:
    def test_partial_fill_gives_sector_miss(self):
        c = _cache()
        c.fill(0x100, sector_mask=0b0001)
        assert c.lookup(0x100, 0b0001) == "hit"
        assert c.lookup(0x100, 0b0010) == "partial"
        assert c.sector_misses == 1

    def test_partial_then_completed_fill(self):
        c = _cache()
        c.fill(0x100, 0b0001)
        c.fill(0x100, 0b0010)
        assert c.lookup(0x100, 0b0011) == "hit"

    def test_full_fill_validates_all_sectors(self):
        c = _cache()
        c.fill(0x100)
        assert c.lookup(0x100, c.full_mask) == "hit"

    def test_sector_mask_helper_uses_cache_geometry(self):
        c = _cache(sector=8)
        assert c.sector_mask(0x108, 8) == 0b10

    def test_miss_rate_counts_sector_misses(self):
        c = _cache()
        c.fill(0x100, 0b0001)
        c.lookup(0x100, 0b0010)  # partial
        c.lookup(0x200)  # miss
        c.lookup(0x100, 0b0001)  # hit
        # the partial hit counts as a (sector) miss: 2 of 3 accesses miss
        assert (c.hits, c.misses, c.sector_misses) == (1, 1, 1)


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 31), st.booleans()),  # (line index, fill?)
        max_size=100,
    )
)
def test_cache_agrees_with_reference_model(ops):
    """Property: hit/miss outcomes match a simple LRU reference model."""
    ways, n_sets = 2, 4
    c = SectorCache(size_bytes=ways * n_sets * 64, ways=ways, line_bytes=64)
    model = {s: [] for s in range(n_sets)}  # set -> list of tags (LRU first)
    for line_index, do_fill in ops:
        addr = line_index * 64
        set_idx = line_index % n_sets
        tag = line_index // n_sets
        if do_fill:
            c.fill(addr)
            if tag in model[set_idx]:
                model[set_idx].remove(tag)
            elif len(model[set_idx]) >= ways:
                model[set_idx].pop(0)
            model[set_idx].append(tag)
        else:
            outcome = c.lookup(addr)
            expected = "hit" if tag in model[set_idx] else "miss"
            assert outcome == expected
            if tag in model[set_idx]:
                model[set_idx].remove(tag)
                model[set_idx].append(tag)
