"""Figure 9: PTW vs data share of lower-bandwidth-network traffic.

Paper: PTW-related accesses average ~13% of inter-cluster traffic —
small enough that prioritizing them costs data traffic little
(Observation 4).
"""

from repro.experiments import run_figure


def test_fig09_ptw_fraction(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig9", exp), rounds=1, iterations=1
    )
    record_table(result)
    fractions = result.series["ptw"]
    mean = sum(fractions) / len(fractions)
    # shape: PTW is a clear minority of the traffic on average
    assert mean < 0.5
    assert mean > 0.005
