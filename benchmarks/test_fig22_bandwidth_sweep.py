"""Figure 22: NetCrafter across bandwidth ratios, values and homogeneous.

Paper: gains persist at every tested configuration (8:1 down to 2:1,
higher absolute bandwidths, and a homogeneous 32/32 setup), largest in
the most bandwidth-constrained ones.
"""

from repro.experiments import run_figure


def test_fig22_bandwidth_sweep(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig22", exp), rounds=1, iterations=1
    )
    record_table(result)
    speedups = dict(zip(result.labels, result.series["netcrafter"]))
    # gains everywhere (allowing noise at the least-constrained points)
    assert all(v > 0.97 for v in speedups.values())
    # the most constrained configuration benefits the most
    most_constrained = speedups["128:16"]
    assert most_constrained >= max(speedups.values()) - 0.05
    # homogeneous configuration still improves or holds level
    assert speedups["32:32"] > 0.97
