"""Smoke tests for every figure driver at quick scale.

These check shape and well-formedness, not absolute values — those are
exercised by the benchmark harness at the standard experiment scale and
recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import figures
from repro.experiments.runner import ExperimentScale
from repro.workloads.base import Scale

EXP = ExperimentScale(scale=Scale.tiny(), workloads=("gups", "mis", "bs"))


def _check(result, expected_series=None):
    assert result.labels
    for name, values in result.series.items():
        assert len(values) == len(result.labels), name
    if expected_series:
        assert set(result.series) == set(expected_series)
    # rendering never crashes
    assert result.figure_id in result.to_table()
    return result


def test_fig3():
    r = _check(figures.fig3_ideal_speedup(EXP), {"ideal_speedup"})
    assert all(v > 0.5 for v in r.series["ideal_speedup"])


def test_fig4():
    r = _check(figures.fig4_network_utilization(EXP), {"non_uniform", "ideal"})
    assert all(0.0 <= v <= 1.0 for vals in r.series.values() for v in vals)


def test_fig5():
    r = _check(figures.fig5_remote_latency(EXP))
    assert "bs" not in r.labels  # no inter-cluster reads -> excluded
    assert all(v == 1.0 for v in r.series["non_uniform"])


def test_fig6():
    r = _check(figures.fig6_flit_occupancy(EXP), {"25%_padded", "75%_padded", "either"})
    for i in range(len(r.labels)):
        assert r.series["either"][i] == pytest.approx(
            r.series["25%_padded"][i] + r.series["75%_padded"][i]
        )


def test_fig7():
    r = _check(figures.fig7_cacheline_utilization(EXP))
    for i in range(len(r.labels)):
        total = sum(r.series[k][i] for k in r.series)
        assert total == pytest.approx(1.0)


def test_fig8():
    _check(figures.fig8_ptw_priority(EXP), {"prioritize_ptw", "prioritize_data"})


def test_fig9():
    r = _check(figures.fig9_ptw_fraction(EXP), {"ptw", "data"})
    for i in range(len(r.labels)):
        assert r.series["ptw"][i] + r.series["data"][i] == pytest.approx(1.0)


def test_fig12():
    r = _check(figures.fig12_stitch_rate(EXP), {"stitching", "stitching+pooling"})
    assert all(0.0 <= v <= 1.0 for vals in r.series.values() for v in vals)


def test_fig14():
    r = _check(
        figures.fig14_overall_speedup(EXP),
        {"stitching", "+trimming", "+sequencing", "sector_cache_16B"},
    )
    assert "geomean" in r.notes


def test_fig15():
    _check(figures.fig15_netcrafter_latency(EXP), {"baseline", "netcrafter"})


def test_fig16():
    r = _check(figures.fig16_l1_mpki(EXP), {"baseline", "trimming", "sector_16B"})
    assert all(v >= 0 for vals in r.series.values() for v in vals)


def test_fig17():
    r = _check(figures.fig17_trim_granularity(EXP), {"trimming", "all_trimming"})
    assert r.labels == ["4B", "8B", "16B"]


def test_fig18():
    r = figures.fig18_pooling_sweep(EXP, windows=(32, 64))
    _check(r, {"stitching", "pool_32", "pool_64"})


def test_fig19():
    r = figures.fig19_selective_pooling_sweep(EXP, windows=(32,))
    _check(r, {"stitching", "pool_32"})


def test_fig20():
    r = figures.fig20_byte_reduction(EXP, windows=(32,))
    _check(r, {"stitching", "sfp_32"})
    assert all(v <= 1.0 for vals in r.series.values() for v in vals)


def test_fig21():
    _check(figures.fig21_flit_size(EXP), {"flit_16B", "flit_8B"})


def test_fig22():
    r = figures.fig22_bandwidth_sweep(EXP)
    _check(r, {"netcrafter"})
    assert "32:32" in r.labels  # homogeneous configuration present


def test_table1_matches_paper():
    rows = figures.table1_flit_census()
    by_type = {r["request_type"]: r for r in rows}
    assert by_type["read_rsp"]["bytes_required"] == 68
    assert by_type["read_rsp"]["flits_occupied"] == 5
    assert by_type["write_rsp"]["bytes_padded"] == 12
    assert len(rows) == 6


def test_table2_rows():
    rows = figures.table2_configuration()
    assert "Interconnect" in rows
    assert "16 GB/s" in rows["Interconnect"]


def test_table3_rows():
    assert len(figures.table3_workloads()) == 15
