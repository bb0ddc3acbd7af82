"""The one node builder: single engine or cluster-sharded front end.

Every path that simulates a point — the experiment runner, checkpoint
resume, the smoke and kill-and-resume gates, the sharded-speedup macro —
builds its node here, so the rules for when a run shards and how its
shards are driven exist once.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Union

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.shard.shard_system import ShardObsSpec


@dataclass(frozen=True)
class ShardingOptions:
    """How each simulation point is split across cluster shards.

    Sharding is *intra-run* parallelism: one simulation is decomposed
    into per-cluster shards advancing in conservative lookahead windows
    (:class:`~repro.shard.coordinator.ShardedSystem`).  Results are
    byte-identical to the single-engine run, so the result cache stays
    shared between modes and the choice is purely about wall-clock.

    Points whose system config the shard count does not divide fall back
    to the single engine (identical results) rather than failing a whole
    figure sweep.
    """

    n_shards: int = 1
    #: ``None`` = processes exactly when ``n_shards > 1``; ``False``
    #: forces sequential-windowed mode (debugging, digest comparisons)
    parallel: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"shard count must be >= 1, got {self.n_shards}")

    @property
    def active(self) -> bool:
        return self.n_shards > 1

    def describe(self) -> str:
        """The drive-mode label every front end prints."""
        if not self.active:
            return "single-engine"
        mode = "sequential-windowed" if self.parallel is False else "process-parallel"
        return f"{self.n_shards} shard(s), {mode}"

    def resolve(self, config: SystemConfig) -> Optional["ShardingOptions"]:
        """The concrete plan for one point on ``config``.

        ``None`` when the shard count does not divide the cluster count
        (the point runs on the single engine); otherwise the drive mode
        is decided.  Resolving a resolved plan returns an equal plan.
        """
        if config.n_clusters % self.n_shards:
            return None
        return ShardingOptions(
            n_shards=self.n_shards,
            parallel=self.n_shards > 1 if self.parallel is None else self.parallel,
        )


def add_sharding_arguments(parser: argparse.ArgumentParser, default: int = 1) -> None:
    """The drive-mode flags every CLI shares: ``--shards N`` runs each
    point as N process-parallel cluster shards, ``--sequential-shards``
    drives them round-robin in this process instead."""
    group = parser.add_argument_group(
        "sharding",
        "intra-run cluster sharding: split each simulation into "
        "per-cluster shards advancing in conservative lookahead windows; "
        "results are byte-identical to the single-engine run",
    )
    group.add_argument(
        "--shards",
        type=int,
        default=default,
        metavar="N",
        help="simulate each point as N cluster shards in worker processes "
        f"(must divide the config's cluster count; default: {default})",
    )
    group.add_argument(
        "--sequential-shards",
        action="store_true",
        help="drive the shards round-robin in this process instead of "
        "worker processes (debugging / digest comparisons)",
    )


def sharding_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ShardingOptions:
    """The :class:`ShardingOptions` the :func:`add_sharding_arguments`
    flags ask for; a bad shard count exits through ``parser.error``."""
    try:
        return ShardingOptions(
            n_shards=args.shards, parallel=not args.sequential_shards
        )
    except ValueError as exc:
        parser.error(str(exc))


def build_node(
    config: SystemConfig,
    netcrafter: NetCrafterConfig,
    seed: int,
    sharding: Optional[ShardingOptions] = None,
    obs_spec: Optional[ShardObsSpec] = None,
) -> Union[MultiGpuSystem, ShardedSystem]:
    """An unloaded node simulating one (config, netcrafter, seed) run.

    A :class:`ShardedSystem` when ``sharding`` is given and resolves to a
    plan for ``config`` (a one-shard plan included, which checkpoint
    resume of a 1-shard snapshot needs); a :class:`MultiGpuSystem`
    otherwise.  ``obs_spec`` configures the same observability either way.
    """
    plan = sharding.resolve(config) if sharding is not None else None
    if plan is None:
        obs = obs_spec.build() if obs_spec is not None else None
        return MultiGpuSystem(config=config, netcrafter=netcrafter, seed=seed, obs=obs)
    return ShardedSystem(
        config=config,
        netcrafter=netcrafter,
        seed=seed,
        n_shards=plan.n_shards,
        parallel=plan.parallel,
        obs_spec=obs_spec,
    )
