"""Figure 14: the headline result.

Paper: NetCrafter (Stitching+SFP32, +Trimming, +Sequencing) achieves up
to 64% speedup, 16% on average, over the non-uniform baseline; the 16 B
sector-cache alternative helps the sparse workloads but hurts workloads
with spatial locality.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_fig14_overall_speedup(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig14", exp), rounds=1, iterations=1
    )
    record_table(result)
    stitch = result.series["stitching"]
    trim = result.series["+trimming"]
    full = result.series["+sequencing"]
    sector = result.series["sector_cache_16B"]

    # headline: NetCrafter clearly wins on average, with a strong best case
    assert geometric_mean(full) > 1.08
    assert max(full) > 1.3
    # cumulative ordering holds on average
    assert geometric_mean(full) >= geometric_mean(trim) - 0.02
    assert geometric_mean(trim) >= geometric_mean(stitch) - 0.02
    # the sector cache is not uniformly good: someone regresses
    assert min(sector) < 1.0 or geometric_mean(sector) < geometric_mean(full)
