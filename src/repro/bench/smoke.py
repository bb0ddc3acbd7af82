"""End-to-end smoke sweep: the benchmark that doubles as a semantic gate.

Declares a representative workload x configuration grid as a campaign
(:func:`smoke_campaign`), runs it through the experiment runner's
:func:`~repro.experiments.runner.run_many` with the result cache off,
and reports aggregate engine throughput plus a sha256 digest over every
run's :meth:`RunResult.to_dict` payload.  The fault-injection and
kill-and-resume gates run their points the same way.

The digest is the bit-identity gate for hot-path work: an optimization
that changes it changed simulated behaviour, not just speed.  Engine
event *counts* are excluded from the digest — batching same-cycle work
into fewer events is exactly the kind of optimization the digest must
not veto — but cycles, traffic counters, and latency statistics are all
covered.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.suite.layers import SIM_LAYERS, layer_of
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.shard.build import (
    ShardingOptions,
    add_sharding_arguments,
    build_node,
    sharding_from_args,
)
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: fields of ``RunResult.to_dict`` that describe the simulator's effort
#: or serialization format, not its observable behaviour; excluded from
#: the result digest
_DIGEST_EXCLUDED_FIELDS = (
    "schema",
    "events_processed",
    "trace_path",
    "trace_chrome_path",
    "metrics_path",
    "profile_path",
)

#: (workload, netcrafter-variant) grid; quick drops to the first entries
_WORKLOADS_FULL = ("gups", "mt", "mis", "spmv")
_WORKLOADS_QUICK = ("gups", "mt")
#: the collective-communication family; its grid always covers every
#: member (the cross-mode parity gate must see all four traffic shapes)
#: and quick drops the baseline variant instead
_WORKLOADS_COLLECTIVE = ("ar_ring", "ar_tree", "a2a", "trainmix")


def topology_smoke_config(topology: str = "mesh") -> SystemConfig:
    """The node each topology's smoke grid runs on.

    ``mesh`` keeps the historical default 2x2 node so its digests (and
    the committed gate entries) are untouched; every other fabric runs a
    small single-GPU-per-cluster node — 8 clusters for ``torus3d`` (a
    true 2x2x2 grid) and 4 for the rest — sized so the grid stays fast
    while still exercising virtual switches, multi-hop routes, and
    2-shard boundaries.
    """
    if topology == "mesh":
        return SystemConfig.default()
    if topology == "torus3d":
        return SystemConfig.default().with_overrides(
            n_clusters=8, gpus_per_cluster=1, inter_topology="torus3d"
        )
    return SystemConfig.default().with_overrides(
        n_clusters=4, gpus_per_cluster=1, inter_topology=topology
    )


def smoke_point(workload: str, variant: str, topology: str = "mesh") -> dict:
    """One campaign point entry of a smoke grid: ``workload`` under the
    ``"baseline"``/``"full"`` NetCrafter ``variant`` on ``topology``'s
    smoke node, at the small scale and seed 0."""
    from repro.experiments.figures import arm

    return {
        "workload": workload,
        "variant": variant,
        **arm(topology_smoke_config(topology)),
        "scale": "small",
        "seed": 0,
    }


def smoke_campaign(
    quick: bool = False, topology: str = "mesh", collective: bool = False
) -> dict:
    """The digest grid of ``SMOKE_digest.json``'s ``_grid_key`` entry, as
    campaign data (:mod:`repro.campaign.spec`): workload-major, then
    variant, so its order is the digest's order."""
    if collective:
        workloads = _WORKLOADS_COLLECTIVE
        variants = ("full",) if quick else ("baseline", "full")
    else:
        workloads = _WORKLOADS_QUICK if quick else _WORKLOADS_FULL
        variants = ("baseline", "full")
    return {
        "name": f"smoke-{_grid_key(quick, topology, collective)}",
        "points": [
            smoke_point(workload, variant, topology)
            for workload in workloads
            for variant in variants
        ],
    }


def digestable_payload(result_dict: Dict[str, object]) -> Dict[str, object]:
    """A result dict with effort/artifact fields stripped for digesting."""
    return {
        key: value
        for key, value in result_dict.items()
        if key not in _DIGEST_EXCLUDED_FIELDS
    }


def digest_encoding(result_dict: Dict[str, object]) -> str:
    """One run's part of :func:`results_digest`: the sorted-key JSON of
    its digestable payload."""
    return json.dumps(digestable_payload(result_dict), sort_keys=True)


def digest_of_encodings(encodings: Sequence[str]) -> str:
    """:func:`results_digest` of the runs with these
    :func:`digest_encoding` texts: the JSON of a list is its items'
    encodings, ``", "``-joined in brackets, so none is re-encoded."""
    blob = "[" + ", ".join(encodings) + "]"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def results_digest(result_dicts: List[Dict[str, object]]) -> str:
    """Order-sensitive sha256 over the digestable payload of each run."""
    return digest_of_encodings([digest_encoding(d) for d in result_dicts])


def gate_points(campaign: dict, sharding: Optional[ShardingOptions] = None):
    """A gate's campaign parsed into its points.

    A shard count that does not divide a point's cluster count is a
    ``ValueError``: a gate must not fall back to the single engine
    silently, as a sweep does.
    """
    from repro.campaign.spec import parse_campaign

    points = parse_campaign(campaign).points
    if sharding is not None:
        for point in points:
            if sharding.resolve(point.system) is None:
                raise ValueError(
                    f"{sharding.n_shards} shards do not divide "
                    f"{point.system.n_clusters} clusters"
                )
    return points


def run_smoke_grid(campaign: dict, sharding: Optional[ShardingOptions] = None):
    """Simulate a gate's campaign; returns (results, total_events, total_cycles).

    The points (:func:`gate_points`) run through
    :func:`~repro.experiments.runner.run_many`, the path every figure and
    served point takes, but never from a cached result.  With an active
    ``sharding`` every point runs through
    :class:`~repro.shard.coordinator.ShardedSystem` instead of the single
    engine; by the lookahead-window construction the results — and
    therefore the digest — are byte-identical.
    """
    from repro.experiments.runner import RunContext, run_many

    points = gate_points(campaign, sharding)
    results = run_many(points, use_cache=False, ctx=RunContext(sharding=sharding))
    total_events = sum(result.events_processed for result in results)
    return results, total_events, sum(result.cycles for result in results)


def bench_smoke_sweep(quick: bool = False) -> Tuple[int, Dict[str, object]]:
    """Harness entry: simulated cycles as work units (invariant under the
    bit-identity gate, so cycles/second compares as wall-time speedup even
    when optimizations change the engine's *event* count), digest + grid
    shape as extra."""
    results, total_events, total_cycles = run_smoke_grid(smoke_campaign(quick))
    digest = results_digest([r.to_dict() for r in results])
    return total_cycles, {
        "points": len(results),
        "events": total_events,
        "results_digest": digest,
    }


def smoke_dispatch_profile(quick: bool = False) -> Dict[str, object]:
    """Exact work and order counts over one untimed pass of the smoke grid.

    Returns the row fields ``events_by_callback`` (engine events per
    callback key ``Class.method``, summed over the points), their sums
    per simulator layer (``events_by_layer``) and ``dispatch_order`` (a
    sha256 over ``(cycle, schedule key, callback key)`` of every
    dispatched event, point after point; see
    :class:`~repro.obs.profiler.DispatchOrder`).  All are deterministic,
    so ``python -m repro.bench --compare`` fails on any moved key and on
    any reordered event.  The pass runs apart from the timed repeats,
    whose wall time the recorder would inflate.
    """
    from repro.experiments.runner import RunContext
    from repro.obs.profiler import DispatchOrder

    order = DispatchOrder()
    for point in gate_points(smoke_campaign(quick)):
        point = point.normalized(RunContext())
        system = point.system
        node = build_node(system, point.netcrafter, point.seed)
        node.load(
            get_workload(point.workload).build(
                n_gpus=system.n_gpus, scale=point.scale, seed=point.seed
            )
        )
        order.attach(node.engine)
        node.run()
    events_by_callback = dict(sorted(order.counts.items()))
    return {
        "events_by_callback": events_by_callback,
        "events_by_layer": events_by_layer(events_by_callback),
        "dispatch_order": order.hexdigest(),
    }


def events_by_layer(events_by_callback: Dict[str, int]) -> Dict[str, int]:
    """Fold per-callback event counts into the simulator layers of
    :data:`repro.bench.suite.layers.LAYER_OF_CLASS`, in report order; a
    callback whose class has no layer raises."""
    counts = dict.fromkeys(SIM_LAYERS, 0)
    for key, count in events_by_callback.items():
        counts[layer_of(key)] += count
    return counts


# -- sharded-speedup macro ---------------------------------------------------

#: the ISSUE's reference sharding benchmark: 8 GPUs in 4 clusters.  The
#: raised inter-cluster latency widens the lookahead window, so each
#: coordinator round-trip covers more simulated cycles — the regime
#: intra-run sharding is built for.
def _macro_config() -> SystemConfig:
    return SystemConfig.default().with_overrides(
        n_clusters=4, inter_link_latency=128
    )


def bench_sharded_speedup(quick: bool = False) -> Tuple[int, Dict[str, object]]:
    """E2e macro: single-engine vs 2-shard process-parallel wall clock.

    Runs ``gups`` on an 8-GPU / 4-cluster config once on the single
    engine and once as two process-parallel shards, asserting the two
    results are byte-identical (the digest is the semantic gate) and
    reporting the wall-clock ratio.  ``speedup`` only demonstrates
    parallelism when the host grants the process more than one CPU —
    ``cpus`` records how many were available so a single-core runner's
    numbers are not mistaken for a regression.
    """
    import time

    from repro.shard.coordinator import _available_cpus

    system_config = _macro_config()
    scale = Scale.small() if quick else Scale.default()
    trace = get_workload("gups").build(
        n_gpus=system_config.n_gpus, scale=scale, seed=0
    )

    single = build_node(system_config, NetCrafterConfig.full(), 0)
    single.load(trace)
    start = time.perf_counter()
    single_result = single.run()
    single_wall = time.perf_counter() - start

    sharded = build_node(
        system_config,
        NetCrafterConfig.full(),
        0,
        ShardingOptions(n_shards=2, parallel=True),
    )
    sharded.load(trace)
    start = time.perf_counter()
    sharded_result = sharded.run()
    sharded_wall = time.perf_counter() - start

    digest = results_digest([single_result.to_dict()])
    sharded_digest = results_digest([sharded_result.to_dict()])
    if digest != sharded_digest:
        raise RuntimeError(
            "sharded run diverged from the single engine: "
            f"{sharded_digest} != {digest}"
        )
    extra = {
        "points": 1,
        "results_digest": digest,
        "single_wall_seconds": single_wall,
        "sharded_wall_seconds": sharded_wall,
        "speedup": single_wall / sharded_wall if sharded_wall > 0 else 0.0,
        "shards": 2,
        "windows": sharded.windows_run,
        "cpus": _available_cpus(),
    }
    # the per-window coordination-overhead breakdown: verb round trips,
    # exact pickle bytes over the worker pipes, coordinator idle wait
    extra.update(sharded.coord_stats.to_dict())
    return single_result.cycles, extra


# -- CLI: the CI shard-smoke gate --------------------------------------------


def _grid_key(
    quick: bool, topology: str = "mesh", collective: bool = False
) -> str:
    """Digest-file key: historical bare keys for mesh, prefixed otherwise;
    the collective family's grids get a ``collective:`` prefix on top."""
    grid = "quick" if quick else "full"
    key = grid if topology == "mesh" else f"{topology}:{grid}"
    return f"collective:{key}" if collective else key


def check_digest(
    digest: str,
    grid_key: str,
    *,
    expect_file=None,
    expect_digest=None,
    reference: str = "committed single-engine digest",
) -> int:
    """Compare a grid digest against the expected one and report it.

    The expected digest is ``expect_digest`` or, given ``expect_file``,
    that file's ``grid_key`` entry.  Returns the gate's exit code: 0 on
    a match (or with nothing to compare), 1 on a mismatch, 2 when the
    file has no entry for the grid.
    """
    import sys
    from pathlib import Path

    expected = expect_digest
    if expect_file:
        expected = json.loads(Path(expect_file).read_text()).get(grid_key)
        if expected is None:
            print(
                f"{expect_file} has no entry for the {grid_key!r} grid",
                file=sys.stderr,
            )
            return 2
    if expected is None:
        return 0
    if digest == expected:
        print(f"digest matches the {reference}")
        return 0
    print(f"DIGEST MISMATCH: expected {expected}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    """Run the smoke grid (optionally sharded) and check its digest.

    The committed ``SMOKE_digest.json`` records the single-engine digest
    per grid; CI re-runs the grid in sequential-windowed and 2-shard
    process-parallel modes and requires both to reproduce it exactly.
    """
    import argparse
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.smoke",
        description="Run the smoke sweep and verify its result digest.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="gups+mt grid instead of all four"
    )
    parser.add_argument(
        "--collective",
        action="store_true",
        help="smoke the collective-communication family instead of the "
        "Table-3 grid (all four collectives; --quick drops the baseline "
        "variant)",
    )
    parser.add_argument(
        "--topology",
        default="mesh",
        metavar="SHAPE",
        help="inter-cluster fabric to smoke (any registered topology; "
        "default mesh, the paper fabric, on the historical 2x2 node)",
    )
    add_sharding_arguments(parser)
    parser.add_argument(
        "--expect-digest",
        metavar="HEX",
        help="fail unless the grid digest equals this sha256",
    )
    parser.add_argument(
        "--expect-file",
        metavar="PATH",
        help="fail unless the digest matches this grid's entry in the "
        "committed digest file (e.g. SMOKE_digest.json)",
    )
    parser.add_argument(
        "--write-file",
        metavar="PATH",
        help="record this grid's digest into the digest file (merging "
        "with any other grid's entry)",
    )
    args = parser.parse_args(argv)

    from repro.network.topologies import topology_names

    if args.topology not in topology_names():
        print(
            f"unknown topology {args.topology!r}; "
            f"registered: {', '.join(topology_names())}",
            file=sys.stderr,
        )
        return 2
    grid_key = _grid_key(args.quick, args.topology, args.collective)
    sharding = sharding_from_args(parser, args)
    results, events, cycles = run_smoke_grid(
        smoke_campaign(args.quick, args.topology, args.collective), sharding
    )
    digest = results_digest([r.to_dict() for r in results])
    print(
        f"smoke grid [{grid_key}] {sharding.describe()}: "
        f"{len(results)} points, {cycles} cycles, {events} events"
    )
    print(f"digest {digest}")
    exit_code = check_digest(
        digest,
        grid_key,
        expect_file=args.expect_file,
        expect_digest=args.expect_digest,
    )
    if exit_code == 2:
        return exit_code

    if args.write_file:
        path = Path(args.write_file)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[grid_key] = digest
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"recorded digest in {path}")
    return exit_code


if __name__ == "__main__":
    import sys

    sys.exit(main())
