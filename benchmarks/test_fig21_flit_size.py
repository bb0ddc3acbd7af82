"""Figure 21: Stitching+SFP speedup at 8 B vs 16 B flit size.

Paper: smaller flits leave less padding per flit, so stitching's benefit
shrinks — but remains positive.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_fig21_flit_size(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig21", exp), rounds=1, iterations=1
    )
    record_table(result)
    big = geometric_mean(result.series["flit_16B"])
    small = geometric_mean(result.series["flit_8B"])
    # shape: both positive on average; 16 B benefits at least as much
    assert big > 1.0
    assert big >= small - 0.02
