"""Workload registry: Table 3's application list, by name."""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.gpu.cta import WorkloadTrace
from repro.vm.alternative_placement import PLACEMENTS
from repro.workloads.base import Scale, WorkloadGenerator
from repro.workloads.collective import collective_generators
from repro.workloads.dnn import Lenet, Resnet18, Vgg16
from repro.workloads.synthetic import (
    Atax,
    BlackScholes,
    Gups,
    Im2Col,
    LargeGemm,
    MatrixTranspose,
    MaximalIndependentSet,
    Mm2,
    Mvt,
    PageRank,
    ShocReduction,
    Spmv,
    Syr2k,
)

#: Table 3 order
_TABLE3_GENERATORS = [
    Gups(),
    MatrixTranspose(),
    MaximalIndependentSet(),
    Im2Col(),
    Atax(),
    BlackScholes(),
    Mm2(),
    Mvt(),
    Spmv(),
    PageRank(),
    ShocReduction(),
    Syr2k(),
    Vgg16(),
    Lenet(),
    Resnet18(),
]

WORKLOADS: Dict[str, WorkloadGenerator] = {gen.name: gen for gen in _TABLE3_GENERATORS}
#: extra workloads used by specific experiments (not in Table 3)
WORKLOADS["gemm_large"] = LargeGemm()
#: collective-communication family (repro.workloads.collective)
_COLLECTIVE_GENERATORS = collective_generators()
for _gen in _COLLECTIVE_GENERATORS:
    WORKLOADS[_gen.name] = _gen


class PlacedWorkload:
    """A registered workload whose pages a naive policy re-places.

    Named ``<workload>@<policy>`` (``gups@interleave``), it is an ordinary
    campaign workload: its points are cached and deduplicated like any
    other.  Section 5.1's soundness analysis compares LASP against these.
    """

    def __init__(self, base: WorkloadGenerator, placement: str) -> None:
        self.base = base
        self.placement = placement
        self.name = f"{base.name}@{placement}"

    def build(
        self, n_gpus: int, scale: Optional[Scale] = None, seed: int = 0
    ) -> WorkloadTrace:
        """The base workload's trace with every page re-placed."""
        trace = self.base.build(n_gpus=n_gpus, scale=scale, seed=seed)
        return PLACEMENTS[self.placement](trace, n_gpus)


def get_workload(name: str) -> Union[WorkloadGenerator, PlacedWorkload]:
    """Look up a generator by its Table 3 abbreviation (case-insensitive),
    or a placement-derived workload ``<abbreviation>@<policy>``."""
    key = name.lower()
    generator = WORKLOADS.get(key)
    if generator is not None:
        return generator
    base, at, placement = key.partition("@")
    if at and base in WORKLOADS and placement in PLACEMENTS:
        return PlacedWorkload(WORKLOADS[base], placement)
    raise KeyError(
        f"unknown workload {name!r}; known: {', '.join(sorted(WORKLOADS))}, "
        f"or any of them @{'/@'.join(PLACEMENTS)}"
    )


def all_workload_names() -> List[str]:
    """The 15 evaluated applications, in Table 3 order."""
    return [gen.name for gen in _TABLE3_GENERATORS]


def collective_workload_names() -> List[str]:
    """The collective-communication family, in presentation order."""
    return [gen.name for gen in _COLLECTIVE_GENERATORS]


def workload_table() -> List[Dict[str, str]]:
    """Rows reproducing Table 3 (abbr, pattern, suite)."""
    return [
        {"abbr": gen.name.upper(), "pattern": gen.pattern, "suite": gen.suite}
        for gen in _TABLE3_GENERATORS
    ]
