"""Figure 16: L1 MPKI — Trimming vs the 16 B sector-cache design.

Paper: the sector cache raises L1 MPKI for workloads with spatial
locality because every fill is partial, while Trimming (inter-cluster
fills only) stays close to the baseline.
"""

from repro.experiments import run_figure


def test_fig16_l1_mpki(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig16", exp), rounds=1, iterations=1
    )
    record_table(result)
    baseline = result.series["baseline"]
    trimming = result.series["trimming"]
    sector = result.series["sector_16B"]
    n = len(result.labels)
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    # shape: sector cache has the worst MPKI; trimming sits between
    assert mean(sector) >= mean(trimming)
    assert mean(trimming) >= mean(baseline) * 0.99
    # some workload is clearly hurt by all-sector fills
    assert any(s > b * 1.05 for s, b in zip(sector, baseline))
