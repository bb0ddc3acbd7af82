"""Experiment harness: the paper's figures as campaigns.

Every figure, design-choice ablation (:mod:`repro.experiments.ablations`)
and extension study (:mod:`repro.experiments.extensions`) is one entry of
:data:`FIGURES`; :func:`run_figure` regenerates any of them, and
:func:`generate_report` renders the full markdown report.  Run any of
them from the command line with ``python -m repro.experiments``.

The names below load on first use (PEP 562): importing
:mod:`repro.experiments.runner` or :mod:`repro.experiments.cache`, as
every simulation and serving process does, compiles none of the figure
registry.
"""

import importlib

#: exported name -> the module defining it (a submodule exports itself)
_EXPORTS = {
    "FIGURES": "repro.experiments.registry",
    "figure_campaign": "repro.experiments.registry",
    "run_figure": "repro.experiments.registry",
    "ExperimentScale": "repro.experiments.runner",
    "figures": "repro.experiments.figures",
    "ablations": "repro.experiments.ablations",
    "extensions": "repro.experiments.extensions",
    "generate_report": "repro.experiments.report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = module if module_name.rsplit(".", 1)[1] == name else getattr(module, name)
    globals()[name] = value
    return value
