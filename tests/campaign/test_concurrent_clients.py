"""Two concurrent ``run_many`` clients sharing one cache directory.

The exactly-once guarantee the campaign server gives *inside* one
process must also hold *across* processes coordinating only through the
shared cache dir's in-flight claims: whichever client wins a point's
claim executes it, the other follows the published result.  Exactly one
execution per unique point, byte-identical results on both sides.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

CLIENT = """\
import json, sys
from repro.experiments import runner
from repro.experiments.cache import ResultCache
from repro.workloads.base import Scale

runner.install_context(runner.RunContext(cache=ResultCache(sys.argv[2])))
points = [
    runner.ExperimentPoint(workload=w, scale=Scale.tiny(), seed=0)
    for w in ("gups", "mt")
]
results = runner.run_many(points)
from repro.bench.smoke import results_digest
print(json.dumps({
    "who": sys.argv[1],
    "executed": runner.run_stats.executed,
    "disk_hits": runner.run_stats.disk_hits,
    "inflight_hits": runner.run_stats.inflight_hits,
    "digest": results_digest([r.to_dict() for r in results]),
}))
"""


def _spawn(tmp_path, who, cache_dir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, str(tmp_path / "client.py"), who, cache_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def test_two_clients_execute_each_point_exactly_once(tmp_path):
    (tmp_path / "client.py").write_text(CLIENT)
    cache_dir = str(tmp_path / "shared-cache")

    procs = [_spawn(tmp_path, who, cache_dir) for who in ("a", "b")]
    reports = []
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        reports.append(json.loads(out.strip().splitlines()[-1]))

    # every unique point simulated exactly once across both processes;
    # the loser of each claim either followed the in-flight execution or
    # (if it started late enough) read the already-published entry
    total_executed = sum(r["executed"] for r in reports)
    assert total_executed == 2, reports
    total_served = sum(r["disk_hits"] + r["inflight_hits"] for r in reports)
    assert total_executed + total_served == 4, reports

    # both clients saw byte-identical results
    assert reports[0]["digest"] == reports[1]["digest"], reports

    # no claim debris left behind
    claims = list(Path(cache_dir).glob("inflight/*.claim"))
    assert claims == []
