"""Tests for TLBs and the page-walk cache."""

import pytest

from repro.vm.tlb import PageWalkCache, Tlb


class TestTlb:
    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Tlb(0)
        with pytest.raises(ValueError):
            Tlb(10, assoc=3)

    def test_miss_then_hit(self):
        tlb = Tlb(4)
        assert tlb.lookup(1) is None
        tlb.insert(1, 0x1000)
        assert tlb.lookup(1) == 0x1000
        assert tlb.hits == 1 and tlb.misses == 1

    def test_fully_associative_lru(self):
        tlb = Tlb(2)
        tlb.insert(1, 0x1000)
        tlb.insert(2, 0x2000)
        tlb.lookup(1)  # make 2 the LRU
        tlb.insert(3, 0x3000)
        assert tlb.lookup(2) is None
        assert tlb.lookup(1) == 0x1000
        assert tlb.lookup(3) == 0x3000

    def test_set_associative_indexing(self):
        tlb = Tlb(4, assoc=2)  # 2 sets
        # vpns 0 and 2 share set 0; 1 and 3 share set 1
        tlb.insert(0, 0xA)
        tlb.insert(2, 0xB)
        tlb.insert(4, 0xC)  # evicts vpn 0 (set 0 LRU)
        assert tlb.lookup(0) is None
        assert tlb.lookup(2) == 0xB
        assert tlb.lookup(1) is None  # other set untouched

    def test_reinsert_updates_value(self):
        tlb = Tlb(2)
        tlb.insert(1, 0x1000)
        tlb.insert(1, 0x9000)
        assert tlb.lookup(1) == 0x9000

    def test_invalidate(self):
        tlb = Tlb(2)
        tlb.insert(1, 0x1000)
        assert tlb.invalidate(1)
        assert not tlb.invalidate(1)
        assert tlb.lookup(1) is None

    def test_hit_rate(self):
        tlb = Tlb(2)
        tlb.insert(1, 0x1)
        tlb.lookup(1)
        tlb.lookup(2)
        assert (tlb.hits, tlb.misses) == (1, 1)
        assert Tlb(2).accesses == 0


class TestPageWalkCache:
    def test_cold_miss_is_level_zero(self):
        pwc = PageWalkCache(8)
        assert pwc.longest_prefix_level(0x12345) == 0
        assert pwc.misses == 1

    def test_full_walk_inserts_three_levels(self):
        pwc = PageWalkCache(8)
        pwc.insert_path(0x12345)
        assert pwc.longest_prefix_level(0x12345) == 3
        assert pwc.hits == 1

    def test_partial_prefix_match(self):
        pwc = PageWalkCache(8)
        pwc.insert_path(0x12345)
        # same level-2 prefix (vpn >> 18), different level-3 prefix
        sibling = (0x12345 & ~((1 << 18) - 1)) | (1 << 17)
        level = pwc.longest_prefix_level(sibling)
        assert level == 2

    def test_same_2mb_region_hits_level3(self):
        pwc = PageWalkCache(8)
        pwc.insert_path(0x200)
        assert pwc.longest_prefix_level(0x3FF) == 3  # same leaf node

    def test_capacity_evicts_lru(self):
        pwc = PageWalkCache(entries=3)  # one walk inserts 3 prefixes
        pwc.insert_path(0x0)
        pwc.insert_path(1 << 27)  # totally disjoint prefixes
        assert pwc.longest_prefix_level(0x0) == 0  # evicted

    def test_accesses_counted(self):
        pwc = PageWalkCache(8)
        pwc.longest_prefix_level(1)
        pwc.insert_path(1)
        pwc.longest_prefix_level(1)
        assert pwc.accesses == 2
