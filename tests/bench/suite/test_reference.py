"""Reference digests, the command line, and running outside a checkout."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.bench.suite import cli, procs
from repro.bench.suite.reference import (
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    REFERENCE_SERVE_ROUNDS,
    Reference,
    campaign_key,
    serve_seed_sets,
)
from repro.bench.suite.report import REPO_ROOT, load_declaration
from repro.bench.suite.workloads import WORKLOADS


def test_committed_reference_covers_base_seeds():
    reference = Reference.load()
    for wl in WORKLOADS.values():
        for base in REFERENCE_SEEDS:
            if wl.kind == "serve":
                seed_sets = itertools.islice(
                    serve_seed_sets(base), REFERENCE_SERVE_ROUNDS + 1
                )
                keys = [campaign_key(s) for s in seed_sets]
            else:
                keys = [p.label for p in wl.points(base)]
            assert all(reference.expected(wl.name, k) for k in keys), wl.name


def test_corrupted_reference_fails_the_run_and_still_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(REFERENCE_PATH.read_text())
    doc["digests"]["local_sweep"] = {
        label: "0" * 64 for label in doc["digests"]["local_sweep"]
    }
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "REFERENCE_PATH", corrupted)

    status = cli.main(["--workload", "local_sweep", "--seed", "0", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False and last["failed"] >= 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [m["name"] for m in load_declaration()["end_to_end"]]


def test_run_all_fails_when_a_child_is_killed(monkeypatch, capsys):
    killed = subprocess.CompletedProcess([], -9, stdout="")
    monkeypatch.setattr(cli.subprocess, "run", lambda *args, **kwargs: killed)
    assert cli.main(["--workload", "all"]) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    declaration = load_declaration()
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in declaration["paths"]:
        shutil.copytree(
            REPO_ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    args = [sys.executable, *declaration["command"][1:]]
    run = subprocess.run(
        args + ["--workload", "local_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in procs.child_env().items() if k != "PYTHONPATH"},
    )
    assert run.returncode != 0
    assert run.stdout == ""
    assert not Path(tmp_path / ".suite_runs").exists()
