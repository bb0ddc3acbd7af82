"""Tests for the 4-level radix page table."""

import pytest
from hypothesis import given, strategies as st

from repro.vm.page_table import (
    BITS_PER_LEVEL,
    LEVELS,
    PAGE_SIZE,
    PTE_BYTES,
    PageTable,
    split_vpn,
)
from repro.vm.placement import AddressSpace


def _pt(n_gpus=4, root=0):
    return PageTable(AddressSpace(n_gpus), root_gpu=root)


def test_split_vpn_roundtrip():
    vpn = 0x123456789
    parts = split_vpn(vpn)
    assert len(parts) == LEVELS
    rebuilt = 0
    for p in parts:
        rebuilt = (rebuilt << BITS_PER_LEVEL) | p
    assert rebuilt == vpn & ((1 << (BITS_PER_LEVEL * LEVELS)) - 1)


def test_map_and_translate():
    pt = _pt()
    pt.map(0x1000, 0xABC000, leaf_owner_hint=2)
    assert pt.translate_vpn(0x1000) == 0xABC000
    assert pt.translate_vpn(0x1001) is None


def test_walk_path_has_four_levels():
    pt = _pt()
    pt.map(0x42, 0x1000, leaf_owner_hint=1)
    path = pt.walk(0x42)[0]
    assert [level for level, _, _ in path] == [1, 2, 3, 4]


def test_walk_path_unmapped_raises():
    pt = _pt()
    with pytest.raises(KeyError):
        pt.walk(0x999)
    pt.map(0x42, 0x1000, leaf_owner_hint=1)
    with pytest.raises(KeyError):
        pt.walk(0x43)  # same leaf node, no entry


def test_leaf_placed_on_hint_gpu():
    pt = _pt()
    pt.map(0x42, 0x1000, leaf_owner_hint=3)
    leaf = pt.leaf_node(0x42)
    assert leaf.gpu == 3


def test_interior_nodes_on_root_gpu():
    pt = _pt(root=1)
    pt.map(0x42, 0x1000, leaf_owner_hint=3)
    path = pt.walk(0x42)[0]
    for level, _addr, gpu in path[:-1]:
        assert gpu == 1
    assert path[-1][2] == 3


def test_leaf_owner_fixed_by_first_page_in_region():
    """PTE co-placement: the 2 MB region's leaf follows its first page."""
    pt = _pt()
    base = 0x200  # region of 512 pages
    pt.map(base, 0x1000, leaf_owner_hint=2)
    pt.map(base + 1, 0x2000, leaf_owner_hint=0)  # same region, later page
    leaf = pt.leaf_node(base)
    assert leaf.gpu == 2  # owner stays with the first mapping
    assert pt.leaf_node(base + 1) is leaf


def test_different_regions_get_different_leaves():
    pt = _pt()
    pt.map(0x0, 0x1000, leaf_owner_hint=0)
    pt.map(0x200, 0x2000, leaf_owner_hint=1)  # next 2 MB region
    assert pt.leaf_node(0x0) is not pt.leaf_node(0x200)


def test_pte_addresses_within_node_frame():
    pt = _pt()
    pt.map(0x1FF, 0x1000, leaf_owner_hint=1)
    for _level, pte_addr, _gpu in pt.walk(0x1FF)[0]:
        assert pte_addr % PTE_BYTES == 0


def test_adjacent_vpns_share_leaf_pte_line():
    """PTEs of adjacent pages land in the same node (L2 locality)."""
    pt = _pt()
    pt.map(0x100, 0x1000, leaf_owner_hint=0)
    pt.map(0x101, 0x2000, leaf_owner_hint=0)
    a = pt.walk(0x100)[0][-1][1]
    b = pt.walk(0x101)[0][-1][1]
    assert abs(a - b) == PTE_BYTES


def test_nodes_created_counted():
    pt = _pt()
    assert pt.nodes_created == 1  # root
    pt.map(0x0, 0x1000, leaf_owner_hint=0)
    assert pt.nodes_created == 4  # root + L2 + L3 + leaf


@given(vpns=st.lists(st.integers(0, 2**30), unique=True, min_size=1, max_size=40))
def test_many_mappings_translate_back(vpns):
    pt = _pt()
    space = AddressSpace(4)
    expected = {}
    for i, vpn in enumerate(vpns):
        paddr = space.alloc_frame(i % 4)
        pt.map(vpn, paddr, leaf_owner_hint=i % 4)
        expected[vpn] = paddr
    for vpn, paddr in expected.items():
        assert pt.translate_vpn(vpn) == paddr
        path, walked = pt.walk(vpn)
        assert len(path) == LEVELS
        assert walked == paddr


def _map_first_reference(pt, vpn, gpu):
    """What ``map_first`` replaces: a lookup, then on a miss a data frame
    and a :meth:`PageTable.map` with ``gpu`` as the leaf hint."""
    existing = pt.translate_vpn(vpn)
    if existing is not None:
        return existing
    paddr = pt.address_space.alloc_frame(gpu)
    pt.map(vpn, paddr, leaf_owner_hint=gpu)
    return paddr


@given(
    maps=st.lists(
        st.tuples(st.integers(0, 2**36 - 1), st.integers(0, 3)), min_size=1, max_size=40
    ),
    nearby=st.booleans(),
)
def test_map_first_is_lookup_then_map(maps, nearby):
    if nearby:
        # share interior and leaf nodes, repeats included
        maps = [(vpn % 2048, gpu) for vpn, gpu in maps]
    fast, reference = _pt(), _pt()
    for vpn, gpu in maps:
        assert fast.map_first(vpn, gpu) == _map_first_reference(reference, vpn, gpu)
    assert fast.nodes_created == reference.nodes_created
    assert fast.address_space._next_frame == reference.address_space._next_frame
    for vpn, _ in maps:
        assert fast.walk(vpn) == reference.walk(vpn)
        assert fast.leaf_node(vpn).gpu == reference.leaf_node(vpn).gpu
