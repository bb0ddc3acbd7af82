"""Figure 5: average inter-cluster memory access latency vs ideal.

Paper: the ideal configuration's remote latency is well below the
non-uniform baseline's (normalized to 1.0), because congestion at the
lower-bandwidth network inflates queueing delay.
"""

from repro.experiments import run_figure


def test_fig05_remote_latency(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig5", exp), rounds=1, iterations=1
    )
    record_table(result)
    ideal = result.series["ideal"]
    assert all(v <= 1.05 for v in ideal)  # never meaningfully worse
    assert min(ideal) < 0.8  # congested workloads improve a lot
