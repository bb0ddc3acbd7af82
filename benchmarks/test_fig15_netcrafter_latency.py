"""Figure 15: inter-cluster memory latency, baseline vs NetCrafter.

Paper: traffic reduction lowers average inter-cluster access latency.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_fig15_netcrafter_latency(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig15", exp), rounds=1, iterations=1
    )
    record_table(result)
    crafted = result.series["netcrafter"]
    # shape: latency drops on average (normalized baseline = 1.0)
    assert geometric_mean(crafted) < 1.0
    assert min(crafted) < 0.8
