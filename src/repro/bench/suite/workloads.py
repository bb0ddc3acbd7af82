"""The suite's four workloads, as data.

Each workload derives every input from the base seed ``S`` it is given;
the program only ever sees the generated points.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.runner import ExperimentPoint
from repro.workloads.base import Scale

#: the Table-3 workloads the serving campaigns draw from (the twelve
#: non-DNN kernels: the DNNs are an order of magnitude longer at tiny
#: scale and would turn the serving mix into a simulation benchmark)
SERVE_WORKLOADS = (
    "gups", "mt", "mis", "im2col", "atax", "bs",
    "mm2", "mvt", "spmv", "pr", "sr", "syr2k",
)

#: the small experiment scale with a quarter of its CTAs: a sharded pass
#: (four points) takes seconds, so one run holds several passes
SHARDED_SCALE = dataclasses.replace(Scale.small(), ctas_per_gpu=4)

_VARIANTS = {"baseline": NetCrafterConfig.baseline, "full": NetCrafterConfig.full}


@dataclass(frozen=True)
class SimPoint:
    """One simulation point of a workload's pass."""

    workload: str
    variant: str
    seed: int

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.variant}/s{self.seed}"


@dataclass(frozen=True)
class Workload:
    """A named benchmark workload.

    ``kind`` selects the path it drives: ``"sweep"`` runs points serially
    through the single engine, ``"sharded"`` through
    :class:`~repro.shard.coordinator.ShardedSystem` with ``n_shards``
    process-parallel shards, ``"serve"`` through the campaign server,
    one closed-loop client submitting campaign rounds.
    """

    name: str
    kind: str
    workloads: Tuple[str, ...]
    variants: Tuple[str, ...]
    scale: Scale
    system: SystemConfig
    #: one pass per seed, as offsets from the base seed (sim kinds)
    seed_offsets: Tuple[int, ...] = (0,)
    n_shards: int = 1
    note: Optional[str] = None

    @property
    def multi_process(self) -> bool:
        """Whether its simulator processes spread over the host's CPUs."""
        return self.kind != "sweep"

    def passes(self, base_seed: int) -> List[List[SimPoint]]:
        """One pass per seed offset; every pass runs the same (kernel,
        variant) mix, so per-pass rates compare across passes."""
        return [
            [
                SimPoint(workload, variant, base_seed + offset)
                for workload in self.workloads
                for variant in self.variants
            ]
            for offset in self.seed_offsets
        ]

    def points(self, base_seed: int) -> List[SimPoint]:
        """Every point of every pass, seed-major."""
        return [point for one_pass in self.passes(base_seed) for point in one_pass]

    def experiment_point(self, point: SimPoint) -> ExperimentPoint:
        """The single-engine runner point simulating ``point``."""
        return ExperimentPoint(
            workload=point.workload,
            system=self.system,
            netcrafter=_VARIANTS[point.variant](),
            scale=self.scale,
            seed=point.seed,
        ).normalized()

    def campaign(self, seeds: Tuple[int, ...]) -> Dict[str, object]:
        """The serving campaign document covering ``seeds`` (serve kind)."""
        return {
            "name": f"{self.name}-s{'-'.join(str(s) for s in seeds)}",
            "grid": {
                "workloads": list(self.workloads),
                "variants": list(self.variants),
                "seeds": list(seeds),
                "scale": dataclasses.asdict(self.scale),
            },
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="netcrafter_sweep",
            kind="sweep",
            workloads=("gups", "mt", "mis", "pr", "spmv"),
            variants=("baseline", "full"),
            scale=Scale.small(),
            system=SystemConfig.default(),
            seed_offsets=tuple(range(8)),
        ),
        Workload(
            name="local_sweep",
            kind="sweep",
            workloads=("bs", "im2col", "syr2k"),
            variants=("baseline", "full"),
            scale=Scale.default(),
            system=SystemConfig.default(),
            seed_offsets=tuple(range(12)),
        ),
        Workload(
            name="sharded_collective",
            kind="sharded",
            workloads=("gups", "pr", "ar_ring", "a2a"),
            variants=("full",),
            scale=SHARDED_SCALE,
            # the 8-GPU / 4-cluster macro node of repro.bench's sharded
            # benchmark: the raised inter-cluster latency widens the
            # lookahead window each coordinator round trip covers
            system=SystemConfig.default().with_overrides(
                n_clusters=4, inter_link_latency=128
            ),
            seed_offsets=(0, 1),
            n_shards=2,
            note="ar_ring and a2a traces do not depend on the seed: their "
            "points repeat the same simulation under each seed",
        ),
        Workload(
            name="serve_mixed",
            kind="serve",
            workloads=SERVE_WORKLOADS,
            variants=("baseline", "full"),
            scale=Scale.tiny(),
            system=SystemConfig.default(),
        ),
    )
}
