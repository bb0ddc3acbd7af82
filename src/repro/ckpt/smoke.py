"""Kill-and-resume smoke: the checkpoint subsystem's standing gate.

For every point of the :func:`repro.bench.smoke.smoke_campaign` grid
this harness

1. picks a mid-run kill cycle — a fraction of the point's uninterrupted
   ``cycles`` between :data:`KILL_SPAN`, seeded from the point's
   fingerprint (:func:`kill_cycle`), so single-kernel points are cut
   mid-kernel too,
2. runs the point in a child process with a checkpoint hook that
   hard-kills the child (``os._exit``, no cleanup, no atexit) the
   instant its first snapshot, at that cycle, is published,
3. asserts the child actually died at the checkpoint,
4. resumes the snapshot in a *fresh* interpreter the way
   ``--resume-from`` does (:func:`~repro.experiments.runner.execute_point`
   under :class:`~repro.experiments.runner.CheckpointOptions`), and
5. requires the resumed results' grid digest to equal the committed
   ``SMOKE_digest.json`` entry — the same digest an uninterrupted
   single-engine sweep produces, byte for byte.

Because the committed digest is produced by runs that never checkpoint,
passing here proves simultaneously that the hook is a pure observer and
that a killed-and-resumed run is indistinguishable from an undisturbed
one.  The sweep runs in all three execution modes (single-engine,
sequential-windowed, process-parallel) and on any topology-zoo shape
with a committed digest entry.

Two ``mm2`` probes ride along, each compared with an uninterrupted run
of the same point through :func:`~repro.experiments.runner.run_many`.
The second runs under :data:`PROBE_FAULTS`, whose short RDMA timeout
leaves retry clones and backstop timers pending in the snapshot.

A child's spec is JSON: one campaign point entry
(:func:`~repro.campaign.spec.expand_point` rebuilds it), the shard plan,
the kill cycle and the snapshot path.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.smoke import (
    _grid_key,
    check_digest,
    gate_points,
    results_digest,
    smoke_campaign,
    smoke_point,
)
from repro.campaign.spec import expand_point
from repro.ckpt import Checkpointer, CheckpointError, read_header, run_fingerprint
from repro.experiments.cache import fingerprint
from repro.experiments.runner import (
    CheckpointOptions,
    RunContext,
    execute_point,
    run_many,
)
from repro.shard.build import ShardingOptions, build_node
from repro.workloads.registry import get_workload

#: exit code the killed child dies with right after publishing a snapshot
KILL_EXIT_CODE = 43
#: exit code when the child finished without ever being killed (a bug:
#: the kill boundary never fired)
RAN_TO_COMPLETION_CODE = 47
#: the faulted probe's campaign ``faults`` block
PROBE_FAULTS = {"ber": 1e-4, "drop_rate": 0.01, "seed": 5, "rdma_timeout": 256}
#: the kill cycle's range, as fractions of the uninterrupted run's cycles
KILL_SPAN = (0.2, 0.8)


def kill_cycle(point: Dict[str, object], cycles: int) -> int:
    """The mid-run cycle the gate kills campaign ``point`` at, given the
    uninterrupted run's ``cycles``: a fraction within :data:`KILL_SPAN`
    drawn from the point's fingerprint, so each point is cut at its own,
    reproducible place."""
    lo, hi = KILL_SPAN
    draw = int(fingerprint(expand_point(point))[:8], 16) / 0xFFFFFFFF
    return max(1, int(cycles * (lo + (hi - lo) * draw)))


class KillAfterSave(Checkpointer):
    """A checkpointer that hard-kills the process after its first save.

    With ``every`` the kill cycle, the first cut falls there.
    ``os._exit`` skips every cleanup path — no atexit, no finally
    blocks, no multiprocessing teardown — the closest a test harness
    gets to a preemption.  Orphaned shard workers notice the dead pipe
    (EOFError) and exit on their own.
    """

    def after_save(self, cycle: int) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(KILL_EXIT_CODE)


def _context(spec: Dict[str, object], **fields) -> RunContext:
    """The run context a child spec's shard plan asks for."""
    sharding = ShardingOptions(n_shards=spec["n_shards"], parallel=spec["parallel"])
    return RunContext(sharding=sharding, **fields)


def child_run_killed(spec: Dict[str, object]) -> int:
    """Child entry: simulate until the kill-cycle snapshot, then die.

    The one gate path that builds its node itself: the snapshot hook must
    be :class:`KillAfterSave`.  The shard plan and fingerprint follow the
    runner's checkpointing rules, so the resume child finds the snapshot
    its own run would have written.
    """
    point = expand_point(spec["point"])
    sharding = _context(spec).sharding  # None on the single engine
    plan = sharding.resolve(point.system) if sharding is not None else None
    trace = get_workload(point.workload).build(
        n_gpus=point.system.n_gpus, scale=point.scale, seed=point.seed
    )
    run_fp = run_fingerprint(
        point.system,
        point.netcrafter,
        point.seed,
        trace,
        n_shards=plan.n_shards if plan is not None else 1,
    )
    node = build_node(point.system, point.netcrafter, point.seed, plan)
    node._ckpt_hook = KillAfterSave(spec["snapshot"], run_fp, every=spec["kill_at"])
    node.load(trace)
    node.run()
    return RAN_TO_COMPLETION_CODE


def child_resume(spec: Dict[str, object]) -> int:
    """Child entry: resume the snapshot the way ``--resume-from`` does,
    print the result dict as JSON."""
    snapshot = Path(spec["snapshot"])
    checkpointing = CheckpointOptions(
        directory=str(snapshot.parent), resume_from=str(snapshot)
    )
    result, _ = execute_point(
        expand_point(spec["point"]), _context(spec, checkpointing=checkpointing)
    )
    print(json.dumps(result.to_dict()))
    return 0


def _spawn(flag: str, spec: Dict[str, object]) -> subprocess.CompletedProcess:
    """Run a child entry point in its own session and reap the session.

    A hard-killed coordinator leaves forked shard workers behind (they
    inherit its pipe ends, so they never see EOF); capturing through OS
    pipes would then block until the orphans die.  Capture to temp files
    instead, wait only for the direct child, and SIGKILL the whole
    session afterwards — the same scope a real preemption kills.
    """
    cmd = [sys.executable, "-m", "repro.ckpt", flag, json.dumps(spec)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            cmd,
            stdout=out,
            stderr=err,
            start_new_session=True,
            env=dict(os.environ),
        )
        try:
            returncode = proc.wait(timeout=600)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(
            cmd,
            returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def snapshot_path(
    point: Dict[str, object], snapshot_dir: Path, sharding: ShardingOptions
) -> Path:
    """Where the gate's kill child publishes ``point``'s snapshot."""
    mode = "single" if not sharding.active else ("seq" if sharding.parallel is False else "par")
    name = f"{point['workload']}-{fingerprint(expand_point(point))[:12]}-{mode}.ckpt"
    return Path(snapshot_dir) / name


def kill_and_resume_point(
    point: Dict[str, object],
    *,
    snapshot_dir: Path,
    sharding: ShardingOptions = ShardingOptions(),
    kill_at: Optional[int] = None,
) -> Dict[str, object]:
    """Save → hard-kill → resume one campaign ``point`` entry across real
    process boundaries.

    ``kill_at`` is the cycle the run is cut and killed at; by default
    :func:`kill_cycle` picks it from an uninterrupted single-engine run
    of the point.  Returns the resumed run's ``RunResult.to_dict``
    payload; raises :class:`~repro.ckpt.CheckpointError` if the child
    did not die at the checkpoint or the resume child failed.
    """
    snapshot_dir = Path(snapshot_dir)
    snapshot_dir.mkdir(parents=True, exist_ok=True)
    label = f"{point['workload']}/{point['variant']}"
    if kill_at is None:
        reference, _ = execute_point(expand_point(point), RunContext())
        kill_at = kill_cycle(point, reference.cycles)
    spec = {
        "point": point,
        "n_shards": sharding.n_shards,
        "parallel": sharding.parallel,
        "kill_at": kill_at,
        "snapshot": str(snapshot_path(point, snapshot_dir, sharding)),
    }
    killed = _spawn("--run-killed", spec)
    if killed.returncode != KILL_EXIT_CODE:
        raise CheckpointError(
            f"kill child for {label} exited {killed.returncode}, expected "
            f"{KILL_EXIT_CODE} after a snapshot at cycle {kill_at} "
            f"(stderr: {killed.stderr.strip()[-2000:]})"
        )
    if not Path(spec["snapshot"]).exists():
        raise CheckpointError(
            f"kill child for {label} died without publishing {spec['snapshot']}"
        )
    resumed = _spawn("--resume", spec)
    if resumed.returncode != 0:
        raise CheckpointError(
            f"resume child for {label} exited {resumed.returncode} "
            f"(stderr: {resumed.stderr.strip()[-2000:]})"
        )
    return json.loads(resumed.stdout.strip().splitlines()[-1])


def run_smoke(
    quick: bool = True,
    *,
    topology: str = "mesh",
    sharding: ShardingOptions = ShardingOptions(),
    snapshot_dir: Path = Path("results/ckpt-smoke"),
    expect_file: Optional[str] = "SMOKE_digest.json",
) -> int:
    """The ``python -m repro.ckpt --smoke`` gate; returns an exit code."""
    grid_key = _grid_key(quick, topology)
    campaign = smoke_campaign(quick, topology)
    gate_points(campaign, sharding)  # refuses a shard count that cannot run
    print(f"ckpt kill-and-resume smoke [{grid_key}] {sharding.describe()}")
    results: List[Dict[str, object]] = []
    for point in campaign["points"]:
        results.append(
            kill_and_resume_point(point, snapshot_dir=snapshot_dir, sharding=sharding)
        )
        print(
            f"  {point['workload']}/{point['variant']}: killed at cycle "
            f"{_cut(point, snapshot_dir, sharding)}, resumed OK"
        )
    digest = results_digest(results)
    print(f"resumed-grid digest {digest}")

    exit_code = check_digest(
        digest,
        grid_key,
        expect_file=expect_file,
        reference="committed uninterrupted-run digest",
    )
    if exit_code == 2:
        return exit_code

    for faults in (None, PROBE_FAULTS):
        if not _midrun_probe(snapshot_dir, sharding, topology, faults):
            exit_code = 1
    return exit_code


def _cut(point: Dict[str, object], snapshot_dir: Path, sharding: ShardingOptions) -> int:
    """The cycle ``point``'s kill snapshot was cut at: the kill cycle on
    the single engine, the first window at or after it on shards."""
    return read_header(snapshot_path(point, snapshot_dir, sharding))["cycle"]


def _midrun_probe(
    snapshot_dir: Path,
    sharding: ShardingOptions,
    topology: str,
    faults: Optional[Dict[str, object]],
) -> bool:
    """Kill ``mm2`` at a mid-run cycle, resume it, and compare against
    an uninterrupted run; True when they match."""
    point = smoke_point("mm2", "full", topology)
    if faults:
        point["faults"] = faults
    (reference,) = run_many(
        [expand_point(point)], use_cache=False, ctx=RunContext(sharding=sharding)
    )
    kill_at = kill_cycle(point, reference.cycles)
    probe = kill_and_resume_point(
        point, snapshot_dir=snapshot_dir, sharding=sharding, kill_at=kill_at
    )
    label = "faulted mm2" if faults else "mm2"
    # compare via the canonical digest: the probe payload round-tripped
    # through JSON (tuples have become lists), so compare the digests,
    # which canonicalize both sides the same way
    if results_digest([probe]) == results_digest([reference.to_dict()]):
        print(
            f"{label} mid-run probe: killed at cycle "
            f"{_cut(point, snapshot_dir, sharding)} of {reference.cycles}, "
            "resumed byte-identical"
        )
        return True
    print(
        f"{label} mid-run probe: resumed result DIVERGED from the "
        "uninterrupted run",
        file=sys.stderr,
    )
    return False
