"""Extension: hardware coherence (the paper's Section 4.5 future work).

Validates the paper's hypothesis that fine-grained coherence traffic
gives Stitching additional opportunities, and that NetCrafter keeps its
gains under a hardware-coherent baseline.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_ext_hw_coherence(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("ext_coherence", exp), rounds=1, iterations=1
    )
    record_table(result)
    nc_sw = geometric_mean(result.series["nc_over_sw"])
    nc_hw = geometric_mean(result.series["nc_over_hw"])
    # NetCrafter keeps winning under hardware coherence
    assert nc_hw > 1.05
    assert nc_hw > nc_sw - 0.05
    # coherence traffic adds stitch candidates on average
    rate_sw = result.series["stitch_rate_sw"]
    rate_hw = result.series["stitch_rate_hw"]
    n = len(rate_sw)
    assert sum(rate_hw) / n >= sum(rate_sw) / n - 0.005


def test_ext_coherence_traffic(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("ext_coherence_traffic", exp), rounds=1, iterations=1
    )
    record_table(result)
    # write-heavy sharing workloads generate invalidations
    assert max(result.series["inv_per_kop"]) > 0.0
    # the raw hw-coherence baseline stays within a sane band of software
    for value in result.series["hw_over_sw_baseline"]:
        assert 0.7 < value < 1.6
