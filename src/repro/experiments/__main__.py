"""Command-line interface for regenerating paper figures and ablations.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig14 --scale quick
    python -m repro.experiments fig3 fig9 --scale standard
    python -m repro.experiments all --scale quick --jobs 4
    python -m repro.experiments fig14 --shards 2
    python -m repro.experiments fig14 --trace --metrics-interval 1000 --profile

Independent simulation points fan out over ``--jobs`` worker processes,
and finished results persist in a content-addressed disk cache (default
``$REPRO_CACHE_DIR`` or ``.repro_cache``; disable with ``--no-cache``),
so re-generating figures after the first pass is nearly free.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import chaos, figures, runner
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.registry import FIGURES, run_figure
from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentScale
from repro.shard.build import add_sharding_arguments, sharding_from_args
from repro.workloads.base import Scale

SCALES = {
    "quick": ExperimentScale.quick,
    "standard": ExperimentScale.standard,
    "full": lambda: ExperimentScale(scale=Scale.default()),
}


def _topology_choices():
    from repro.network.topologies import topology_names

    return topology_names()


def _print_tables() -> None:
    print("== table1 ==")
    for row in figures.table1_flit_census():
        print("  ", row)
    print("== table2 ==")
    for key, value in figures.table2_configuration().items():
        print(f"  {key:22s} {value}")
    print("== table3 ==")
    for row in figures.table3_workloads():
        print("  ", row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate NetCrafter paper figures and ablations.",
    )
    try:
        # the REPRO_* variables seed the flag defaults; the cache flags
        # resolve their own default below
        env = runner.RunContext.from_env(cache=None)
    except ValueError as exc:
        parser.error(f"bad REPRO_* environment setting: {exc}")
    env_sharding = env.sharding or runner.ShardingOptions()
    parser.add_argument(
        "targets",
        nargs="+",
        help="figure ids (fig3..fig22, abl_*, ext_*), 'tables', 'report', "
        "'list', or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="experiment scale (default: quick)",
    )
    parser.add_argument(
        "--output",
        default="results/report.md",
        help="where 'report' writes its markdown (default: results/report.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=env.jobs,
        help="worker processes for independent simulation points "
        "(default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    add_sharding_arguments(parser, default=env_sharding.n_shards)
    topo_group = parser.add_argument_group(
        "topology",
        "re-run any target on a different inter-cluster fabric from the "
        "topology zoo (repro.network.topologies); applies to every "
        "simulation point, and the 'ext_topology' target sweeps the "
        "whole zoo in one figure",
    )
    topo_group.add_argument(
        "--topology",
        choices=_topology_choices(),
        default=None,
        metavar="SHAPE",
        help="inter-cluster fabric for every point "
        f"(one of: {', '.join(_topology_choices())})",
    )
    topo_group.add_argument(
        "--bw-class",
        action="append",
        default=None,
        metavar="CLASS=BW",
        help="per-class link bandwidth override in bytes/cycle, e.g. "
        "'up=32' for a star/fat_tree uplink tier (repeatable)",
    )
    fault_group = parser.add_argument_group(
        "fault injection",
        "chaos-run parameters for the 'chaos' target (deterministic: the "
        "fault RNG is keyed on packet content, so points cache normally)",
    )
    fault_group.add_argument(
        "--fault-ber",
        default=None,
        metavar="P[,P...]",
        help="bit-error rates to sweep (comma list; default "
        "0,2e-5,1e-4,5e-4)",
    )
    fault_group.add_argument(
        "--fault-drop",
        type=float,
        default=None,
        metavar="P",
        help="per-flit drop probability applied at every sweep point "
        "(default 0)",
    )
    fault_group.add_argument(
        "--fault-flaps",
        default=None,
        metavar="S:E:F[,...]",
        help="bandwidth-flap windows on inter-cluster links, each "
        "start:end:factor (e.g. 1000:5000:0.25)",
    )
    fault_group.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="fault-process seed (default 1)",
    )
    ckpt_group = parser.add_argument_group(
        "checkpointing",
        "checkpoint/resume at any cycle (repro.ckpt): each point's "
        "latest resumable snapshot is published atomically to "
        "<dir>/<fingerprint>.ckpt; a resumed run's result is "
        "byte-identical to an uninterrupted one",
    )
    ckpt_group.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="CYCLES",
        help="snapshot every CYCLES simulated cycles (enables "
        "checkpointing); without it, --resume-from takes no further "
        "snapshots",
    )
    ckpt_group.add_argument(
        "--checkpoint-dir",
        default="results/ckpt",
        metavar="DIR",
        help="snapshot directory (default: results/ckpt)",
    )
    ckpt_group.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help="resume points from snapshots: a checkpoint directory "
        "(per-point lookup by fingerprint) or one snapshot file; a "
        "snapshot whose fingerprint does not match the point fails "
        "loudly (FingerprintMismatchError)",
    )
    obs_group = parser.add_argument_group(
        "observability",
        "per-run artifacts (any of these forces fresh simulation: "
        "cached results carry no trace)",
    )
    obs_group.add_argument(
        "--trace",
        action="store_true",
        help="record flit/packet lifecycle events; writes <stem>.trace.jsonl "
        "plus a Chrome trace_event export (<stem>.trace.json) per run",
    )
    obs_group.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every Nth request of each GPU in the trace, with its "
        "retries and response (default: 1 = all)",
    )
    obs_group.add_argument(
        "--metrics-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help="snapshot link/queue/MSHR/engine metrics every CYCLES cycles "
        "into <stem>.metrics.jsonl",
    )
    obs_group.add_argument(
        "--profile",
        action="store_true",
        help="profile engine callbacks (events + wall time per handler) "
        "into <stem>.profile.json",
    )
    obs_group.add_argument(
        "--obs-dir",
        default="results/obs",
        metavar="DIR",
        help="directory for observability artifacts (default: results/obs)",
    )
    args = parser.parse_args(argv)

    chaos_opts = None
    if (
        args.fault_ber is not None
        or args.fault_drop is not None
        or args.fault_flaps is not None
        or args.fault_seed is not None
    ):
        from repro.faults.config import FlapWindow

        defaults = chaos.ChaosOptions()
        try:
            bers = (
                tuple(float(p) for p in args.fault_ber.split(","))
                if args.fault_ber is not None
                else defaults.bers
            )
            flaps = defaults.flaps
            if args.fault_flaps is not None:
                windows = []
                for spec in args.fault_flaps.split(","):
                    start, end, factor = spec.split(":")
                    windows.append(
                        FlapWindow(int(start), int(end), float(factor))
                    )
                flaps = tuple(windows)
        except ValueError as exc:
            parser.error(f"bad fault sweep spec: {exc}")
        chaos_opts = chaos.ChaosOptions(
            bers=bers,
            drop_rate=args.fault_drop
            if args.fault_drop is not None
            else defaults.drop_rate,
            flaps=flaps,
            seed=args.fault_seed if args.fault_seed is not None else defaults.seed,
        )

    overrides = {}
    if args.topology is not None:
        overrides["inter_topology"] = args.topology
    if args.bw_class:
        bw = {}
        for spec in args.bw_class:
            cls, sep, value = spec.partition("=")
            if not sep or not cls:
                parser.error(f"--bw-class wants CLASS=BW, got {spec!r}")
            if cls in bw:
                parser.error(
                    f"duplicate --bw-class for class {cls!r} "
                    f"(already set to {bw[cls]:g})"
                )
            try:
                bw[cls] = float(value)
            except ValueError:
                parser.error(f"bad bandwidth in --bw-class {spec!r}")
        overrides["link_bw_overrides"] = tuple(sorted(bw.items()))
    try:
        checkpointing = None
        if args.checkpoint_every is not None or args.resume_from is not None:
            checkpointing = runner.CheckpointOptions(
                directory=args.checkpoint_dir,
                every=args.checkpoint_every,
                resume_from=args.resume_from,
            )
        ctx = runner.RunContext(
            jobs=args.jobs,
            cache=None
            if args.no_cache or args.targets == ["list"]
            else ResultCache(args.cache_dir or default_cache_dir()),
            observability=runner.ObservabilityOptions(
                trace=args.trace,
                trace_sample=args.trace_sample,
                metrics_interval=args.metrics_interval,
                profile=args.profile,
                out_dir=args.obs_dir,
            ),
            sharding=sharding_from_args(parser, args),
            checkpointing=checkpointing,
            system_overrides=overrides,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if overrides:
        print(
            "topology overrides: "
            + ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        )

    if args.targets == ["list"]:
        print("available targets:")
        for name in ["tables", "report"] + list(FIGURES):
            print(f"  {name}")
        return 0

    runner.install_context(ctx)
    if ctx.observability is not None:
        print(f"observability artifacts -> {args.obs_dir}/ (cache bypassed)")
    if ctx.sharding is not None:
        print(f"cluster sharding: {ctx.sharding.describe()}")
    if ctx.checkpointing is not None:
        saving = (
            f"every {args.checkpoint_every} cycle(s) -> {args.checkpoint_dir}/"
            if args.checkpoint_every is not None
            else "no further snapshots"
        )
        print(
            f"checkpointing: {saving}"
            + (f", resuming from {args.resume_from}" if args.resume_from else "")
        )
    exp = SCALES[args.scale]()
    # this invocation's --fault-* options shape the chaos target only
    params = {"chaos": {"opts": chaos_opts}}
    targets = list(FIGURES) + ["tables"] if args.targets == ["all"] else args.targets
    for target in targets:
        if target == "tables":
            _print_tables()
            continue
        if target == "report":
            from pathlib import Path

            Path(args.output).parent.mkdir(parents=True, exist_ok=True)
            generate_report(exp, path=args.output)
            print(f"report written to {args.output}")
            continue
        if target not in FIGURES:
            print(f"unknown target {target!r}; try 'list'", file=sys.stderr)
            return 2
        print(run_figure(target, exp, **params.get(target, {})).to_table())
        print()
    if runner.run_stats.points:
        print("== run summary ==")
        for line in runner.run_stats.summary_lines():
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
