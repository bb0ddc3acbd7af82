"""Figure 8: prioritize read-PTW traffic vs equal-fraction data traffic.

Paper: prioritizing PTW-related accesses improves performance while
prioritizing the same fraction of data accesses does not (Observation 3).
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_fig08_ptw_priority(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig8", exp), rounds=1, iterations=1
    )
    record_table(result)
    ptw = geometric_mean(result.series["prioritize_ptw"])
    data = geometric_mean(result.series["prioritize_data"])
    # shape: PTW priority helps on average, data priority does not beat it
    assert ptw > 1.0
    assert ptw > data
    assert data < 1.1  # data priority is not a win
