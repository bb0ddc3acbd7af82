"""Figure 3: ideal (uniform high-bandwidth) vs non-uniform baseline.

Paper: the ideal configuration averages ~1.5x over the non-uniform
baseline, showing the lower-bandwidth network is the bottleneck.
"""

from repro.experiments import run_figure


def test_fig03_ideal_speedup(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig3", exp), rounds=1, iterations=1
    )
    record_table(result)
    speedups = result.series["ideal_speedup"]
    # shape: meaningful average headroom, and network-bound workloads gain
    assert result.series_mean("ideal_speedup", geometric=True) > 1.1
    assert max(speedups) > 1.3
    # no workload should get *slower* with more bandwidth
    assert min(speedups) > 0.95
