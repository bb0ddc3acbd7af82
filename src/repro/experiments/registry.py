"""Every figure, ablation and extension as one registry of campaigns.

:data:`FIGURES` maps each figure id to its :class:`~repro.experiments.
figures.Figure`, in presentation order.  :func:`figure_campaign` writes a
figure's points as campaign data (:mod:`repro.campaign.spec`), and
:func:`run_figure` runs it: one :func:`~repro.campaign.spec.parse_campaign`,
one :func:`~repro.experiments.runner.run_many` over the parsed points, and
the figure's reducer over a :class:`~repro.experiments.figures.Table` that
maps each declared cell to its result by fingerprint.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

from repro.experiments import ablations, chaos, collective, extensions, figures
from repro.experiments.cache import fingerprint
from repro.experiments.figures import Cell, Figure, FigureResult, Table
from repro.experiments.runner import ExperimentScale, run_many

FIGURES: Dict[str, Figure] = {
    "fig3": figures.FIG3,
    "fig4": figures.FIG4,
    "fig5": figures.FIG5,
    "fig6": figures.FIG6,
    "fig7": figures.FIG7,
    "fig8": figures.FIG8,
    "fig9": figures.FIG9,
    "fig12": figures.FIG12,
    "fig14": figures.FIG14,
    "fig15": figures.FIG15,
    "fig16": figures.FIG16,
    "fig17": figures.FIG17,
    "fig18": figures.FIG18,
    "fig19": figures.FIG19,
    "fig20": figures.FIG20,
    "fig21": figures.FIG21,
    "fig22": figures.FIG22,
    "abl_scheduler": ablations.SCHEDULER,
    "abl_early_release": ablations.EARLY_RELEASE,
    "abl_pooling_grace": ablations.POOLING_GRACE,
    "abl_search_depth": ablations.SEARCH_DEPTH,
    "abl_cq_capacity": ablations.CQ_CAPACITY,
    "ext_coherence": extensions.COHERENCE,
    "ext_coherence_traffic": extensions.COHERENCE_TRAFFIC,
    "ext_scaling": extensions.SCALING,
    "ext_topology": extensions.TOPOLOGY,
    "ext_placement": extensions.PLACEMENT,
    "ext_energy": extensions.ENERGY,
    "ext_collective": collective.COLLECTIVE,
    "chaos": chaos.CHAOS,
}


def _cells(figure_id: str, exp: ExperimentScale, params) -> Dict[Cell, dict]:
    """Each (workload, arm) cell of a figure and the campaign point it declares."""
    figure = FIGURES[figure_id]
    arms = figure.arms(**params)
    scale = asdict(exp.scale)
    return {
        (workload, name): {"workload": workload, **keys, "scale": scale, "seed": exp.seed}
        for workload in figure.workloads(exp)
        for name, keys in arms.items()
    }


def figure_campaign(figure_id: str, exp: ExperimentScale, **params) -> dict:
    """The campaign of one figure at ``exp``: its workloads x arms, as
    JSON data that :func:`~repro.campaign.spec.parse_campaign` reads."""
    return {"name": figure_id, "points": list(_cells(figure_id, exp, params).values())}


def run_figure(figure_id: str, exp: ExperimentScale, **params) -> FigureResult:
    """Regenerate one figure: simulate its campaign in one batch, then reduce."""
    # imported here: repro.campaign.spec imports this package's runner
    from repro.campaign.spec import expand_point, parse_campaign

    cells = _cells(figure_id, exp, params)
    spec = parse_campaign({"name": figure_id, "points": list(cells.values())})
    by_fingerprint = dict(zip(spec.fingerprints, run_many(spec.points)))
    results = {
        cell: by_fingerprint[fingerprint(expand_point(entry))]
        for cell, entry in cells.items()
    }
    figure = FIGURES[figure_id]
    return figure.reduce(Table(exp, figure.workloads(exp), results), **params)
