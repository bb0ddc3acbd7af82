"""Kill-and-resume equivalence against the committed digest gate.

Each case runs the quick smoke grid with a checkpoint hook that
hard-kills the child process (``os._exit``) the instant its snapshot at
a mid-run cycle is published, resumes every snapshot in a fresh
interpreter,
and requires the resumed grid digest to equal the committed
``SMOKE_digest.json`` entry — the digest of an uninterrupted,
never-checkpointed single-engine sweep.  Swept across shard counts
{1, 2} x both shard drive modes x two topology-zoo shapes.
"""

import json
from pathlib import Path

import pytest

from repro.bench.smoke import _grid_key, results_digest, smoke_campaign, smoke_point
from repro.ckpt.smoke import kill_and_resume_point
from repro.shard.build import ShardingOptions

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((REPO_ROOT / "SMOKE_digest.json").read_text())

#: (n_shards, parallel) — 1 shard is the single-engine front end; 2
#: shards exercise both coordinator drive modes
EXECUTION_MODES = [
    pytest.param(1, False, id="single-engine"),
    pytest.param(2, False, id="2-shard-sequential"),
    pytest.param(2, True, id="2-shard-parallel"),
]


@pytest.mark.parametrize("topology", ["mesh", "star"])
@pytest.mark.parametrize("n_shards,parallel", EXECUTION_MODES)
def test_killed_grid_resumes_to_the_committed_digest(
    tmp_path, topology, n_shards, parallel
):
    sharding = ShardingOptions(n_shards, parallel=parallel)
    results = [
        kill_and_resume_point(point, snapshot_dir=tmp_path, sharding=sharding)
        for point in smoke_campaign(quick=True, topology=topology)["points"]
    ]
    assert results_digest(results) == COMMITTED[_grid_key(True, topology)], (
        f"{topology}/{n_shards}-shard{'-parallel' if parallel else ''}: "
        "killed-and-resumed grid diverged from the uninterrupted digest"
    )


def test_midrun_kill_resumes_byte_identical(tmp_path):
    """Kill mm2 at a mid-run cycle and require the resumed result to
    match an uninterrupted run through the canonical digest; the
    snapshot the resume started from holds unfinished work."""
    from repro.campaign.spec import expand_point
    from repro.ckpt import read_header
    from repro.ckpt.smoke import KILL_SPAN, kill_cycle
    from repro.experiments.runner import run_many

    point = smoke_point("mm2", "full")
    (reference,) = run_many([expand_point(point)], use_cache=False)
    kill_at = kill_cycle(point, reference.cycles)
    lo, hi = KILL_SPAN
    assert lo * reference.cycles <= kill_at <= hi * reference.cycles
    probe = kill_and_resume_point(point, snapshot_dir=tmp_path, kill_at=kill_at)
    assert results_digest([probe]) == results_digest([reference.to_dict()])
    (snapshot,) = tmp_path.glob("*.ckpt")
    assert read_header(snapshot)["cycle"] == kill_at
