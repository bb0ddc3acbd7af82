"""What the simulation and serving paths import.

Every workload's set-up imports :mod:`repro.experiments.runner`, and the
campaign server imports :mod:`repro.bench.smoke` for its result digest;
both packages export their names lazily, so neither path compiles the
figure registry or the benchmark harness.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: modules the figure registry and the benchmark harness bring in
_HEAVY = (
    "repro.experiments.figures",
    "repro.experiments.ablations",
    "repro.experiments.extensions",
    "repro.experiments.registry",
    "repro.experiments.report",
    "repro.bench.harness",
    "repro.bench.schema",
)


def _loaded_after(statements):
    """The heavy modules loaded by ``statements`` in a fresh interpreter."""
    code = ";".join(statements) + (
        f";import sys;print(','.join(m for m in {_HEAVY!r} if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return [name for name in out.stdout.strip().split(",") if name]


def test_runner_server_and_smoke_load_no_registry_or_harness():
    assert _loaded_after(
        [
            "import repro.experiments.runner",
            "import repro.campaign.server",
            "import repro.bench.smoke",
        ]
    ) == []


def test_package_names_still_resolve_on_use():
    from repro import bench, experiments

    assert experiments.run_figure is experiments.registry.run_figure
    assert "fig14" in experiments.FIGURES
    assert experiments.figures.__name__ == "repro.experiments.figures"
    assert bench.validate_report is bench.schema.validate_report
    assert "repro.experiments.registry" in _loaded_after(
        ["import repro.experiments", "repro.experiments.FIGURES"]
    )
