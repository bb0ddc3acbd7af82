"""Figure 19: Stitching + Selective Flit Pooling, window sweep 32-128.

Paper: exempting PTW flits removes the pathological degradations of
plain pooling; 32 cycles remains the sweet spot.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_fig19_selective_pooling_sweep(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig19", exp), rounds=1, iterations=1
    )
    record_table(result)
    means = {
        name: geometric_mean(values) for name, values in result.series.items()
    }
    pool_means = [means[f"pool_{w}"] for w in (32, 64, 96, 128)]
    assert means["pool_32"] >= max(pool_means) - 0.02
    # selective pooling stays a net win on average
    assert means["pool_32"] > 1.0


def test_fig19_selective_beats_plain_pooling(benchmark, exp):
    """Cross-check of the paper's Fig 18 vs 19 story: selective >= plain."""

    def compare():
        plain = run_figure("fig18", exp, windows=(32,))
        selective = run_figure("fig19", exp, windows=(32,))
        return (
            geometric_mean(plain.series["pool_32"]),
            geometric_mean(selective.series["pool_32"]),
        )

    plain_mean, selective_mean = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert selective_mean >= plain_mean - 0.02
