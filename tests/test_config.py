"""Tests for the system-level configuration."""

import pytest

from repro.config import SystemConfig


def test_defaults_are_frontier_shaped():
    cfg = SystemConfig.default()
    assert cfg.n_gpus == 4
    assert cfg.flit_size == 16
    assert cfg.switch_latency == 30


def test_cluster_mapping():
    cfg = SystemConfig.default()
    assert [cfg.cluster_of(g) for g in range(4)] == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        cfg.cluster_of(4)


def test_table2_preset_matches_paper():
    cfg = SystemConfig.table2()
    assert cfg.cus_per_gpu == 64
    assert cfg.l1_tlb_entries == 32
    assert cfg.l2_tlb_entries == 512
    assert cfg.pwc_entries == 32
    assert cfg.n_walkers == 16
    assert cfg.l2_size == 4 * 1024 * 1024
    assert cfg.l2_banks == 16
    assert cfg.l2_latency == 100
    assert cfg.dram_latency == 100
    assert cfg.inter_cluster_bw == 16.0
    assert cfg.intra_cluster_bw == 128.0
    assert cfg.switch_buffer_entries == 1024


def test_ideal_preset_equalizes_bandwidth():
    cfg = SystemConfig.ideal()
    assert cfg.inter_cluster_bw == cfg.intra_cluster_bw
    custom = SystemConfig.default().with_overrides(intra_cluster_bw=256.0)
    assert SystemConfig.ideal(custom).inter_cluster_bw == 256.0


def test_sector_cache_preset():
    cfg = SystemConfig.sector_cache_baseline(sector_bytes=8)
    assert cfg.l1_fetch_mode == "sector"
    assert cfg.l1_sector_bytes == 8


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(l1_fetch_mode="half")
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(n_clusters=0)
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(coherence="none")
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(inter_topology="hypercube")
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(
            inter_topology="star", link_bw_overrides={"sideways": 8.0}
        )
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(
            inter_topology="star", link_bw_overrides={"up": 0.0}
        )
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(
            inter_topology="torus3d", torus_dims=(2, 2, 2)
        )
    with pytest.raises(ValueError):
        SystemConfig.default().with_overrides(fat_tree_oversubscription=0)


def test_frozen_and_hashable():
    a = SystemConfig.default()
    b = SystemConfig.default()
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.flit_size = 8
