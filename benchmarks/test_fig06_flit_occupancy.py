"""Figure 6: distribution of flits by padded fraction (Observation 1).

Paper: on average ~42% of lower-bandwidth-network flits carry 25% or
75% padding, the headroom Stitching reclaims.
"""

from repro.experiments import run_figure


def test_fig06_flit_occupancy(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig6", exp), rounds=1, iterations=1
    )
    record_table(result)
    either = [v for v in result.series["either"] if v > 0]
    mean = sum(either) / len(either)
    # shape: a large minority of flits is substantially padded
    assert 0.2 < mean < 0.8
    # padded fractions only ever fall in {0, 25, 75}% for Table 1 packets
    for i in range(len(result.labels)):
        assert result.series["either"][i] <= 1.0
