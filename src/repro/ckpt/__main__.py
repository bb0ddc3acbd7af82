"""CLI for the checkpoint subsystem's kill-and-resume smoke.

``python -m repro.ckpt --smoke`` runs the standing gate: every point of
the smoke grid is saved at a kernel boundary, hard-killed, resumed in a
fresh interpreter, and the resumed grid digest is compared against the
committed ``SMOKE_digest.json`` entry.

``--run-killed``/``--resume`` are internal child entry points used by
the harness to cross real process boundaries; they take a JSON spec as
the sole positional argument and are not meant for interactive use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.ckpt.smoke import child_resume, child_run_killed, run_smoke
from repro.shard.build import add_sharding_arguments, sharding_from_args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="checkpoint/resume kill-and-resume smoke gate",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the save -> kill -> resume -> digest-compare sweep",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        default=True,
        help="use the quick smoke grid (default)",
    )
    parser.add_argument(
        "--full",
        dest="quick",
        action="store_false",
        help="use the full smoke grid",
    )
    parser.add_argument(
        "--topology",
        default="mesh",
        help="topology-zoo shape to sweep (default: mesh)",
    )
    add_sharding_arguments(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--snapshot-dir",
        default="results/ckpt-smoke",
        help="where kill-point snapshots are published (CI uploads this "
        "directory as an artifact on failure)",
    )
    parser.add_argument(
        "--expect-file",
        default="SMOKE_digest.json",
        help="committed digest file to compare against ('' to skip)",
    )
    parser.add_argument(
        "--no-midrun-probe",
        action="store_true",
        help="skip the mm2 mid-run-boundary equivalence probes (fault-free and faulted)",
    )
    # internal child entry points (spec JSON as the positional arg)
    parser.add_argument("--run-killed", metavar="SPEC_JSON", default=None)
    parser.add_argument("--resume", metavar="SPEC_JSON", default=None)
    args = parser.parse_args(argv)

    if args.run_killed is not None:
        return child_run_killed(json.loads(args.run_killed))
    if args.resume is not None:
        return child_resume(json.loads(args.resume))
    if not args.smoke:
        parser.print_help()
        return 2
    sharding = sharding_from_args(parser, args)
    return run_smoke(
        args.quick,
        topology=args.topology,
        n_shards=sharding.n_shards,
        parallel=sharding.parallel,
        seed=args.seed,
        snapshot_dir=Path(args.snapshot_dir),
        expect_file=args.expect_file or None,
        midrun_probe=not args.no_midrun_probe,
    )


if __name__ == "__main__":
    sys.exit(main())
