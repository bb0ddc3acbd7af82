"""Command line of the layer-attributed benchmark suite.

Run one workload (the metrics ``BENCHMARK.json`` declares, checked
against reference digests)::

    python3 src/repro/bench/suite --workload netcrafter_sweep --seed 0 \\
        --seconds 15 --trace 0

Times and the ``--seconds`` budget are in reference seconds (see
:mod:`repro.bench.suite.hostspeed`).  ``--trace 1`` runs the workload
traced instead and reports the per-layer metrics.  ``--workload all`` runs every workload, each in a fresh child
interpreter, one after another.  The last line of standard output is the
run's result as one JSON object; the full report (notes, failures, the
points run) is written to ``--out`` (default ``.suite_runs/``), and a
traced run's spans next to it.  The exit status is 0 when every output
was correct, 1 when a check failed, 2 on a usage error.

Compare two sets of reports (see :mod:`repro.bench.suite.compare`)::

    python -m repro.bench.suite compare --before a/*.json --after b/*.json

Regenerate the committed reference digests (only when simulator results
change on purpose)::

    python -m repro.bench.suite reference
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.bench.suite import procs
from repro.bench.suite.reference import REFERENCE_PATH, Reference, generate
from repro.bench.suite.report import (
    RunOutcome,
    build_report,
    load_declaration,
    metric_lines,
)
from repro.bench.suite.workloads import WORKLOADS, Workload


#: the directory form of the suite, which its children are started as
SUITE_DIR = Path(__file__).resolve().parent


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Reference,
    started: Optional[float] = None,
) -> RunOutcome:
    """Run one workload in this interpreter.

    ``started`` is the ``perf_counter`` reading the set-up time counts
    from (the entry point's first line); by default, this call.
    """
    if started is None:
        started = time.perf_counter()
    from repro.bench.suite.serving import run_serve
    from repro.bench.suite.simrun import run_sim

    run = run_serve if wl.kind == "serve" else run_sim
    return run(wl, seed, seconds, trace, reference, started)


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.suite",
        description="Run one benchmark workload (or all of them) and print "
        "every metric with its unit.  Subcommands: compare, reference.",
    )
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="base seed of the inputs")
    parser.add_argument(
        "--seconds",
        type=float,
        default=15.0,
        help="timed work per run, in reference seconds (see hostspeed.py)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="report path (one workload)")
    return parser


def _report_path(args) -> Path:
    if args.out:
        return Path(args.out)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return procs.RUNS_DIR / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    )


def _run_one(args, started: float) -> int:
    declaration = load_declaration()
    wl = WORKLOADS[args.workload]
    outcome = run_workload(
        wl,
        args.seed,
        args.seconds,
        bool(args.trace),
        Reference.load(REFERENCE_PATH),
        started,
    )
    leftover = procs.reap_leftovers()
    if leftover:
        outcome.fail(f"{leftover} child process(es) outlived the run")
    report = build_report(
        wl.name, args.seed, args.seconds, bool(args.trace), outcome, declaration
    )
    path = _report_path(args)
    path.parent.mkdir(parents=True, exist_ok=True)
    if outcome.spans is not None:
        spans_path = path.with_suffix(".spans.jsonl")
        outcome.spans.write(spans_path)
        report["spans"] = str(spans_path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    for line in metric_lines(report):
        print(line)
    print(f"report: {path}")
    print(json.dumps(report["result"]), flush=True)
    return 0 if report["result"]["correct"] else 1


def _run_all(args, names: List[str]) -> int:
    """Every workload in a fresh child interpreter, one after another."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [
                sys.executable, str(SUITE_DIR), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        # a child killed by a signal has a negative code: still a failure
        status = max(status, 1 if child.returncode else 0)
        if child.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary), flush=True)
    return status


def _compare(argv: List[str]) -> int:
    from repro.bench.suite.compare import compare, failing, load_samples, row_lines

    parser = argparse.ArgumentParser(prog="python -m repro.bench.suite compare")
    parser.add_argument("--before", nargs="+", required=True, metavar="REPORT")
    parser.add_argument("--after", nargs="+", required=True, metavar="REPORT")
    args = parser.parse_args(argv)
    before = load_samples(args.before)
    after = load_samples(args.after)
    rows = compare(before, after, load_declaration())
    for line in row_lines(rows):
        print(line)
    for side, reports in (("before", before), ("after", after)):
        for line in reports.incorrect:
            print(f"INCORRECT {side}: {line}")
    return 1 if failing(rows, before, after) else 0


def _reference(argv: List[str]) -> int:
    argparse.ArgumentParser(prog="python -m repro.bench.suite reference").parse_args(argv)
    REFERENCE_PATH.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"reference digests -> {REFERENCE_PATH}")
    return 0


def main(argv: Optional[List[str]] = None, started: Optional[float] = None) -> int:
    """``started``: the ``perf_counter`` reading at the entry point's first
    line, which a run's set-up time counts from (default: now)."""
    if started is None:
        started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    if argv[:1] == ["reference"]:
        return _reference(argv[1:])
    parser = _run_parser()
    args = parser.parse_args(argv)
    names = [w["name"] for w in load_declaration()["workloads"]]
    if args.workload == "all":
        return _run_all(args, names)
    if args.workload not in names or args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of: {', '.join(names)}")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return _run_one(args, started)
