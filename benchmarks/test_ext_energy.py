"""Extension: the energy implication of NetCrafter's traffic reduction."""

from repro.experiments import run_figure
from repro.stats.report import geometric_mean


def test_ext_energy(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("ext_energy", exp), rounds=1, iterations=1
    )
    record_table(result)
    network = geometric_mean(result.series["network_energy"])
    total = geometric_mean(result.series["total_energy"])
    # traffic reduction shows up as network energy < baseline
    assert network < 1.0
    # total energy cannot fall more than the network share allows
    assert network <= total + 0.02
    # and never meaningfully increases
    assert total < 1.1
