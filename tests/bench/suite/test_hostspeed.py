"""Reference seconds: the host-speed probe and the scaling of timed units."""

import os

import pytest

from repro.bench.suite import hostspeed
from repro.bench.suite.report import TimedUnit, timed_values


def test_every_cpu_probe_leaves_the_affinity_as_it_was():
    before = os.sched_getaffinity(0)
    for _ in range(2 * len(before)):
        assert hostspeed.probe(every_cpu=True) > 0
        assert os.sched_getaffinity(0) == before


def test_slowdown_is_mean_probe_over_nominal():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.slowdown([nominal, 3 * nominal]) == pytest.approx(2.0)


def test_budget_counts_reference_seconds_up_to_a_host_cap():
    budget = hostspeed.Budget(10.0)
    budget.spend(8.0, slowdown=2.0)  # 4 reference seconds
    assert not budget.spent
    budget.spend(6.0, slowdown=1.0)  # 10 reference seconds
    assert budget.spent
    slow = hostspeed.Budget(10.0)
    slow.spend(hostspeed.HOST_CAP * 10.0, slowdown=3.0)
    assert slow.reference_s < 10.0 and slow.spent


def test_scaled_times_divide_host_seconds_by_the_slowdown():
    calm = TimedUnit(wall=2.0, cycles=1000, points=4, latencies=[0.5] * 4, slowdown=1.0)
    busy = TimedUnit(wall=4.0, cycles=1000, points=4, latencies=[1.0] * 4, slowdown=2.0)
    host = timed_values([busy, busy, calm], setup_s=0.6, scaled=False)
    scaled = timed_values([busy, busy, calm], setup_s=0.6)
    assert host["sim_cycles_per_s"] == pytest.approx(250.0)
    assert host["latency_s_p50"] == pytest.approx(1.0)
    # every unit reads the same in reference seconds
    assert scaled["sim_cycles_per_s"] == pytest.approx(500.0)
    assert scaled["points_per_s"] == pytest.approx(2.0)
    assert scaled["latency_s_p90"] == pytest.approx(0.5)
    # set-up is scaled by the first unit's slowdown
    assert scaled["setup_s"] == pytest.approx(0.3)
