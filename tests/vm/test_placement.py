"""Tests for the physical address space and LASP placement."""

import pytest

from repro.vm.page_table import PAGE_SIZE, PageTable
from repro.vm.placement import AddressSpace, FRAMES_PER_GPU, LaspPlacement


def test_invalid_gpu_count():
    with pytest.raises(ValueError):
        AddressSpace(0)


def test_frames_allocated_per_gpu_are_disjoint():
    space = AddressSpace(4)
    a = space.alloc_frame(0)
    b = space.alloc_frame(1)
    c = space.alloc_frame(0)
    assert space.home_of(a) == 0
    assert space.home_of(b) == 1
    assert space.home_of(c) == 0
    assert a != c


def test_home_of_any_offset_within_frame():
    space = AddressSpace(2)
    frame = space.alloc_frame(1)
    assert space.home_of(frame + PAGE_SIZE - 1) == 1


def test_home_of_out_of_range():
    space = AddressSpace(2)
    with pytest.raises(ValueError):
        space.home_of(10 * FRAMES_PER_GPU * PAGE_SIZE)


def test_alloc_unknown_gpu():
    space = AddressSpace(2)
    with pytest.raises(ValueError):
        space.alloc_frame(5)


def test_frames_allocated_counter():
    space = AddressSpace(2)
    space.alloc_frame(0)
    space.alloc_frame(0)
    # each GPU allocates upward from the base of its own frame range
    assert space._next_frame == [2, FRAMES_PER_GPU]


class TestLaspPlacement:
    def _placement(self, n=4):
        space = AddressSpace(n)
        return LaspPlacement(space, PageTable(space)), space

    def test_map_page_places_on_owner(self):
        placement, space = self._placement()
        paddr = placement.map_page(0x1000, owner_gpu=2)
        assert space.home_of(paddr) == 2
        assert space.home_of(placement.page_table.translate_vpn(0x1000)) == 2

    def test_map_page_idempotent(self):
        placement, space = self._placement()
        first = placement.map_page(0x1000, 1)
        second = placement.map_page(0x1000, 3)  # later hint ignored
        assert first == second
        assert space.home_of(placement.page_table.translate_vpn(0x1000)) == 1

    def test_translation_installed(self):
        placement, _ = self._placement()
        paddr = placement.map_page(0x77, 0)
        assert placement.page_table.translate_vpn(0x77) == paddr

    def test_pages_on_counts(self):
        placement, space = self._placement()
        placement.map_page(1, 0)
        placement.map_page(2, 0)
        placement.map_page(3, 1)
        homes = [space.home_of(placement.page_table.translate_vpn(v)) for v in (1, 2, 3)]
        assert homes.count(0) == 2
        assert homes.count(1) == 1
