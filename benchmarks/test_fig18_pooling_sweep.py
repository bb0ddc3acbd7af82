"""Figure 18: Stitching + plain Flit Pooling, window sweep 32-128.

Paper: 32 cycles is the sweet spot; longer windows add latency faster
than they add stitching, and some workloads degrade even at 32.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_fig18_pooling_sweep(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig18", exp), rounds=1, iterations=1
    )
    record_table(result)
    means = {
        name: geometric_mean(values) for name, values in result.series.items()
    }
    # shape: the 32-cycle window is the best (or tied-best) pooling point
    pool_means = [means[f"pool_{w}"] for w in (32, 64, 96, 128)]
    assert means["pool_32"] >= max(pool_means) - 0.02
    # pooling never beats what stitching's own headroom allows by much,
    # and long windows do not keep improving
    assert pool_means[-1] <= pool_means[0] + 0.02
