"""Figure 20: reduction in inter-cluster network bytes from Stitching.

Paper: Stitching saves a meaningful fraction of wire bytes; Selective
Flit Pooling adds more, with savings flattening as the window grows.
"""

from repro.experiments import run_figure


def test_fig20_byte_reduction(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig20", exp), rounds=1, iterations=1
    )
    record_table(result)

    def mean(name):
        active = [v for v in result.series[name] if abs(v) > 1e-12]
        return sum(active) / len(active) if active else 0.0

    base = mean("stitching")
    sfp32 = mean("sfp_32")
    sfp128 = mean("sfp_128")
    # shape: stitching saves bytes; pooling saves at least as much
    assert base > 0.0
    assert sfp32 >= base - 0.02
    # savings flatten: the long window is not much better than 32
    assert sfp128 <= sfp32 + 0.05
