"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures and
registers the rendered table; a terminal-summary hook prints every table
at the end of the run (visible even without ``-s``) and mirrors them
into ``results/`` for EXPERIMENTS.md.

Scale control: set ``REPRO_SCALE=quick`` for a fast six-workload pass,
``standard`` (default) for all 15 workloads at the small experiment
scale, or ``full`` for the large scale.

Runner control: the session installs ``RunContext.from_env()``, so
``REPRO_JOBS=N`` fans independent simulation points out over N worker
processes, ``REPRO_CACHE_DIR=path`` enables the persistent result cache
so repeat benchmark sessions skip finished points entirely, and
``REPRO_SHARDS=N`` shards every point into N cluster shards.
"""

from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentScale

_RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
_TABLES = []


def pytest_configure(config):
    runner.install_context(runner.RunContext.from_env())


@pytest.fixture(scope="session")
def exp() -> ExperimentScale:
    """The experiment scale for this benchmark session."""
    return ExperimentScale.from_env()


@pytest.fixture
def record_table():
    """Register a rendered figure/table for the terminal summary."""

    def _record(result, filename=None):
        if isinstance(result, FigureResult):
            name = filename or result.figure_id
            text = result.to_table()
        else:
            name, text = filename, str(result)
        _TABLES.append((name, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        return result

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if runner.run_stats.points:
        terminalreporter.section("experiment runner summary")
        for line in runner.run_stats.summary_lines():
            terminalreporter.write_line(line)
    if not _TABLES:
        return
    terminalreporter.section("reproduced tables & figures")
    for name, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)
    terminalreporter.write_line("")
    terminalreporter.write_line(f"(also written to {_RESULTS_DIR}/)")
