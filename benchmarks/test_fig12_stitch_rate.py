"""Figure 12: fraction of flits stitched, before vs after Flit Pooling.

Paper: pooling significantly raises the stitched fraction by waiting for
candidates to arrive.
"""

from repro.experiments import run_figure


def test_fig12_stitch_rate(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig12", exp), rounds=1, iterations=1
    )
    record_table(result)
    without = result.series["stitching"]
    with_pool = result.series["stitching+pooling"]
    active = [(w, p) for w, p in zip(without, with_pool) if w > 0 or p > 0]
    assert active, "no workload produced stitchable traffic"
    mean_without = sum(w for w, _ in active) / len(active)
    mean_with = sum(p for _, p in active) / len(active)
    # shape: pooling never hurts the stitch rate and raises the mean
    assert mean_with >= mean_without
