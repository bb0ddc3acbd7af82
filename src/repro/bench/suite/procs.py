"""Child processes the suite starts: environment, timing, and reaping."""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import Set

from repro.bench.suite.report import REPO_ROOT

#: where the suite keeps reports, spans and scratch directories
RUNS_DIR = Path(".suite_runs")


def child_env() -> dict:
    """The current environment with the repository's ``src`` importable."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def descendants(pid: int) -> Set[int]:
    """Every live descendant of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    found: Set[int] = set()
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        task_dir = Path(f"/proc/{parent}/task")
        try:
            tasks = list(task_dir.iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for child in map(int, children):
                if child not in found:
                    found.add(child)
                    frontier.append(child)
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def reap_leftovers() -> int:
    """Kill every descendant still running and reap direct children;
    returns how many there were (a correct run leaves none)."""
    leftover = {pid for pid in descendants(os.getpid()) if alive(pid)}
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in leftover:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild: its own parent or init reaps it
    return len(leftover)
