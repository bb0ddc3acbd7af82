"""Extension: node scaling beyond the paper's 2x2 configuration.

The paper's motivation is GPU-count scaling; this study checks that
NetCrafter keeps recovering the ideal network's headroom on three- and
four-cluster nodes and on a ring inter-cluster fabric with multi-hop
routing.
"""

from repro.experiments import run_figure


def test_ext_scaling(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("ext_scaling", exp), rounds=1, iterations=1
    )
    record_table(result)
    speedups = dict(zip(result.labels, result.series["netcrafter"]))
    headroom = dict(zip(result.labels, result.series["ideal"]))
    for label in result.labels:
        # NetCrafter never regresses the baseline on any topology
        assert speedups[label] > 0.97, label
        # and never exceeds what the ideal network allows (sanity)
        assert speedups[label] <= headroom[label] + 0.1, label
    # it keeps a real win on the paper's 2x2 node
    assert speedups["2x2_mesh"] > 1.05
