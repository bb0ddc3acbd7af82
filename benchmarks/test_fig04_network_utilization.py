"""Figure 4: inter-cluster network utilization, non-uniform vs ideal.

Paper: the non-uniform configuration runs the lower-bandwidth links hot
(congestion); the ideal configuration sits far below saturation.
"""

from repro.experiments import run_figure


def test_fig04_network_utilization(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig4", exp), rounds=1, iterations=1
    )
    record_table(result)
    non_uniform = result.series["non_uniform"]
    ideal = result.series["ideal"]
    # the slow link is always at least as utilized as the fat one
    assert all(n >= i - 1e-9 for n, i in zip(non_uniform, ideal))
    # network-bound workloads saturate the non-uniform link
    assert max(non_uniform) > 0.5
    assert max(ideal) < 0.5
