"""Ablations of this reproduction's own design choices (DESIGN.md §6).

Not paper figures — these quantify the deviations the reproduction
documents, so a reviewer can see what each one is worth.
"""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_ablation_scheduler(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("abl_scheduler", exp), rounds=1, iterations=1
    )
    record_table(result)
    age = geometric_mean(result.series["age"])
    rr = geometric_mean(result.series["rr"])
    # both are wins; RR's extra gain is the scheduling artifact DESIGN.md
    # explains (rare types get an implicit priority share)
    assert age > 1.0
    assert rr > 1.0


def test_ablation_early_release(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("abl_early_release", exp), rounds=1, iterations=1
    )
    record_table(result)
    on = geometric_mean(result.series["early_release"])
    off = geometric_mean(result.series["expiry_only"])
    assert on >= off - 0.02  # early release never meaningfully hurts


def test_ablation_pooling_grace(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("abl_pooling_grace", exp), rounds=1, iterations=1
    )
    record_table(result)
    for name, values in result.series.items():
        assert geometric_mean(values) > 0.9, name


def test_ablation_search_depth(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("abl_search_depth", exp), rounds=1, iterations=1
    )
    record_table(result)
    shallow = result.series["depth_1"]
    deep = result.series["depth_32"]
    n = len(shallow)
    # a deeper search never finds fewer candidates on average
    assert sum(deep) / n >= sum(shallow) / n - 0.01


def test_ablation_cq_capacity(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("abl_cq_capacity", exp), rounds=1, iterations=1
    )
    record_table(result)
    small = geometric_mean(result.series["cq_64"])
    large = geometric_mean(result.series["cq_1024"])
    # Table 2's 1024 entries are sufficient; a tiny CQ costs a little
    assert large >= small - 0.02
