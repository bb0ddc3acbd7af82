"""The figure registry: every figure's campaign is data, and the table
its reducer reads holds exactly the declared points."""

import hashlib
import json

import pytest

from repro.campaign.spec import parse_campaign
from repro.experiments import runner
from repro.experiments.figures import Table
from repro.experiments.registry import FIGURES, figure_campaign, run_figure
from repro.experiments.runner import (
    ExperimentScale,
    ObservabilityOptions,
    RunContext,
    run_stats,
)
from repro.stats.collectors import RunStats
from repro.stats.report import RunResult
from repro.workloads.base import Scale

#: the distinct points every figure at the quick scale declares, and the
#: sha256 over their sorted fingerprints; the figures' drivers requested
#: exactly this set before they became campaigns.  A change to the cache
#: format, the result schema or a config field moves every fingerprint,
#: and with it this digest.
QUICK_POINTS = 392
QUICK_DIGEST = "38809f69fa6ca7f751540f938d35375cafc3044e0b380f1742206a5473dd020c"


@pytest.fixture(autouse=True)
def _fresh_runner():
    previous = runner.install_context(RunContext())
    runner.clear_cache()
    runner.reset_run_stats()
    yield
    runner.install_context(previous)
    runner.clear_cache()
    runner.reset_run_stats()


def test_every_campaign_is_json_data_and_parses():
    exp = ExperimentScale.quick()
    fingerprints = set()
    for figure_id in FIGURES:
        campaign = figure_campaign(figure_id, exp)
        assert json.loads(json.dumps(campaign)) == campaign, figure_id
        spec = parse_campaign(campaign)
        assert spec.name == figure_id
        fingerprints.update(spec.fingerprints)
    assert len(fingerprints) == QUICK_POINTS
    blob = "\n".join(sorted(fingerprints)).encode()
    assert hashlib.sha256(blob).hexdigest() == QUICK_DIGEST


def _fake_table(figure_id, exp):
    figure = FIGURES[figure_id]
    workloads = figure.workloads(exp)
    results = {
        (w, name): RunResult(workload=w, config_label=name, cycles=100, stats=RunStats())
        for w in workloads
        for name in figure.arms()
    }
    return figure, Table(exp, workloads, results)


def test_reducer_given_a_missing_cell_raises_key_error():
    exp = ExperimentScale(scale=Scale.tiny(), workloads=("gups", "mt"))
    figure, table = _fake_table("fig3", exp)
    assert figure.reduce(table).series["ideal_speedup"] == [1.0, 1.0]
    del table.results["mt", "ideal"]
    with pytest.raises(KeyError, match="mt/ideal"):
        figure.reduce(table)


def test_undeclared_cell_names_the_point():
    exp = ExperimentScale(scale=Scale.tiny(), workloads=("gups",))
    _, table = _fake_table("fig6", exp)
    with pytest.raises(KeyError, match="gups/ideal is not a declared point"):
        table["gups", "ideal"]
    with pytest.raises(KeyError, match="bs/base"):
        table["bs", "base"]


def test_observed_figure_simulates_each_point_once(tmp_path):
    """Regression: an observability context bypasses the memo, so a figure
    that fetched its points a second time simulated each one twice."""
    exp = ExperimentScale(scale=Scale.tiny(), workloads=("gups", "mt"))
    obs_dir = tmp_path / "obs"
    runner.install_context(
        RunContext(observability=ObservabilityOptions(profile=True, out_dir=str(obs_dir)))
    )
    run_figure("fig6", exp)
    profiles = list(obs_dir.glob("*.profile.json"))
    assert run_stats.executed == run_stats.points == len(profiles) == 2
