"""Figure 17: large-GEMM L1 MPKI vs trimming granularity (4/8/16 B).

Paper: selective Trimming keeps MPKI below the all-trimming sector
approach at every granularity, and coarser granularity lowers MPKI.
"""

from repro.experiments import run_figure


def test_fig17_trim_granularity(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig17", exp), rounds=1, iterations=1
    )
    record_table(result)
    trim = result.series["trimming"]
    all_trim = result.series["all_trimming"]
    # shape: selective trimming <= all-trimming at every granularity
    assert all(t <= a * 1.02 for t, a in zip(trim, all_trim))
    # coarser sectors reduce MPKI for the all-trimming design
    assert all_trim[0] >= all_trim[-1]
