"""Tests for NetCrafterConfig presets and derived properties."""

import pytest

from repro.core.config import NetCrafterConfig, PriorityMode


def test_baseline_has_nothing_enabled():
    cfg = NetCrafterConfig.baseline()
    assert not cfg.enable_stitching
    assert not cfg.enable_trimming
    assert not cfg.enable_sequencing
    assert not cfg.enable_pooling
    assert not cfg.partition_by_type
    assert cfg.effective_priority is PriorityMode.NONE
    assert not cfg.separate_ptw_partition


def test_stitching_only():
    cfg = NetCrafterConfig.stitching_only()
    assert cfg.enable_stitching
    assert not cfg.enable_pooling
    assert cfg.partition_by_type
    assert not cfg.separate_ptw_partition


def test_stitching_with_pooling_window():
    cfg = NetCrafterConfig.stitching_with_pooling(64)
    assert cfg.enable_pooling
    assert not cfg.selective_pooling
    assert cfg.pooling_window == 64
    # plain pooling does not isolate PTW flits
    assert not cfg.separate_ptw_partition


def test_selective_pooling_separates_ptw():
    cfg = NetCrafterConfig.stitching_with_selective_pooling(32)
    assert cfg.selective_pooling
    assert cfg.separate_ptw_partition


def test_stitch_trim_builds_on_selective_pooling():
    cfg = NetCrafterConfig.stitch_trim()
    assert cfg.enable_stitching and cfg.enable_trimming
    assert cfg.selective_pooling
    assert not cfg.enable_sequencing


def test_full_enables_all_three_mechanisms():
    cfg = NetCrafterConfig.full()
    assert cfg.enable_stitching
    assert cfg.enable_trimming
    assert cfg.enable_sequencing
    assert cfg.effective_priority is PriorityMode.PTW
    assert cfg.separate_ptw_partition


def test_sequencing_only():
    cfg = NetCrafterConfig.sequencing_only()
    assert cfg.effective_priority is PriorityMode.PTW
    assert not cfg.enable_stitching


def test_trimming_only():
    cfg = NetCrafterConfig.trimming_only()
    assert cfg.enable_trimming
    assert not cfg.enable_stitching


def test_priority_mode_override_beats_sequencing_default():
    cfg = NetCrafterConfig(
        enable_sequencing=True, priority_mode=PriorityMode.DATA_MATCHED
    )
    assert cfg.effective_priority is PriorityMode.DATA_MATCHED


def test_with_overrides_returns_new_frozen_copy():
    cfg = NetCrafterConfig.baseline()
    other = cfg.with_overrides(enable_trimming=True)
    assert other.enable_trimming and not cfg.enable_trimming
    with pytest.raises(Exception):
        cfg.enable_trimming = True  # frozen


def test_configs_are_hashable_for_caching():
    a = NetCrafterConfig.full()
    b = NetCrafterConfig.full()
    assert hash(a) == hash(b)
    assert a == b


def test_data_matched_priority_gets_priority_partition():
    cfg = NetCrafterConfig(priority_mode=PriorityMode.DATA_MATCHED)
    assert cfg.effective_priority is PriorityMode.DATA_MATCHED
    assert not cfg.separate_ptw_partition
