"""Section 5.1: baseline soundness — LASP vs naive page placement.

The paper validates its baseline by showing LASP maximizes local
accesses and balances remote traffic, so the network bottleneck is not
a placement artifact.  This bench reproduces that analysis.
"""

from repro.experiments import run_figure


def test_sec51_placement_soundness(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("ext_placement", exp), rounds=1, iterations=1
    )
    record_table(result)
    lasp = result.series["local_lasp"]
    naive = result.series["local_interleave"]
    n = len(result.labels)
    # LASP's locality dominates naive striping on average and never loses
    assert sum(lasp) / n > sum(naive) / n
    assert all(l >= i - 0.05 for l, i in zip(lasp, naive))
    # partitioned workloads are fully local under LASP
    by_label = dict(zip(result.labels, lasp))
    if "bs" in by_label:
        assert by_label["bs"] > 0.95
    # naive placements cost time on at least some workloads
    assert max(result.series["speedup_vs_interleave"]) > 1.03