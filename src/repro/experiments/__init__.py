"""Experiment harness: the paper's figures as campaigns.

Every figure, design-choice ablation (:mod:`repro.experiments.ablations`)
and extension study (:mod:`repro.experiments.extensions`) is one entry of
:data:`FIGURES`; :func:`run_figure` regenerates any of them, and
:func:`generate_report` renders the full markdown report.  Run any of
them from the command line with ``python -m repro.experiments``.
"""

from repro.experiments.runner import ExperimentScale
from repro.experiments import ablations, extensions, figures
from repro.experiments.registry import FIGURES, figure_campaign, run_figure
from repro.experiments.report import generate_report

__all__ = [
    "FIGURES",
    "figure_campaign",
    "run_figure",
    "ExperimentScale",
    "figures",
    "ablations",
    "extensions",
    "generate_report",
]
