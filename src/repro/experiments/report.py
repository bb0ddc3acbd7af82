"""Full-report generation: every figure and table as one markdown file.

``generate_report`` runs the paper's figures from
:data:`~repro.experiments.registry.FIGURES` (reusing the runner cache,
so the cost equals one pass over the configuration space) and renders a
self-contained markdown document — the artifact to attach to a
reproduction writeup.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.config import SystemConfig
from repro.core.overhead import overhead_report
from repro.experiments import figures
from repro.experiments.figures import FigureResult
from repro.experiments.registry import FIGURES, run_figure
from repro.experiments.runner import ExperimentScale

#: the extension section's figures, in presentation order
_EXTENSIONS = ("ext_coherence", "ext_coherence_traffic", "abl_scheduler")


def figure_to_markdown(result: FigureResult, fmt: str = "{:.3f}") -> str:
    """Render one figure as a markdown table."""
    names = list(result.series)
    lines = [
        f"### {result.figure_id}: {result.title}",
        "",
        "| | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names),
    ]
    for i, label in enumerate(result.labels):
        cells = " | ".join(fmt.format(result.series[n][i]) for n in names)
        lines.append(f"| {label} | {cells} |")
    if result.notes:
        lines += ["", f"*{result.notes}*"]
    lines.append("")
    return "\n".join(lines)


def _tables_markdown() -> str:
    lines = ["### Table 1: flit census (16 B flits)", ""]
    rows = figures.table1_flit_census()
    lines.append("| type | occupied | required | padded | flits |")
    lines.append("|---|---|---|---|---|")
    for row in rows:
        lines.append(
            f"| {row['request_type']} | {row['bytes_occupied']} | "
            f"{row['bytes_required']} | {row['bytes_padded']} | "
            f"{row['flits_occupied']} |"
        )
    lines += ["", "### Table 2: configuration", "", "| parameter | value |", "|---|---|"]
    for key, value in figures.table2_configuration().items():
        lines.append(f"| {key} | {value} |")
    lines += ["", "### Table 3: workloads", "", "| abbr | pattern | suite |", "|---|---|---|"]
    for row in figures.table3_workloads():
        lines.append(f"| {row['abbr']} | {row['pattern']} | {row['suite']} |")
    lines.append("")
    return "\n".join(lines)


def generate_report(
    exp: Optional[ExperimentScale] = None,
    path: Optional[Union[str, Path]] = None,
    include_extensions: bool = True,
) -> str:
    """Run every paper figure (and the extension section) and return, and
    optionally write, the markdown."""
    exp = exp or ExperimentScale.standard()
    sections: List[str] = [
        "# NetCrafter reproduction report",
        "",
        f"Workloads: {', '.join(exp.workload_names())}  ",
        f"Scale: {exp.scale}  ",
        "",
        "## Static tables",
        "",
        _tables_markdown(),
        "## Figures",
        "",
    ]
    for figure_id in FIGURES:
        if figure_id.startswith("fig"):
            sections.append(figure_to_markdown(run_figure(figure_id, exp)))
    if include_extensions:
        sections += ["## Extensions & ablations", ""]
        for figure_id in _EXTENSIONS:
            sections.append(figure_to_markdown(run_figure(figure_id, exp)))
    sections += [
        "## Hardware overhead (Section 4.5)",
        "",
        "```",
        overhead_report(SystemConfig.table2()),
        "```",
        "",
    ]
    text = "\n".join(sections)
    if path is not None:
        Path(path).write_text(text)
    return text
