"""The serving workload: one closed-loop client against the campaign server.

Untraced, the server is ``python -m repro.campaign serve --jobs 1`` on a
fresh cache and journal.  After an untimed warm-up campaign (seed ``S``),
round ``r`` submits the campaign for seeds ``(S+r-1, S+r)``, watches it
to completion and fetches it: half its points were executed the round
before and come from the server's memo, half are new and are executed,
written to the cache, and read back from disk by the fetch.  The client
sends the next round only after the previous one is fetched (closed
loop, one client).

Traced, the server runs in-process on a one-thread executor so its
cache can be wrapped in a timing proxy and its ``execute_fn`` can run
each point under the engine profiler; the same rounds are then served
again by an uninstrumented in-process server, for the tracing overhead
and a digest comparison.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bench.smoke import results_digest
from repro.bench.suite import hostspeed, procs
from repro.bench.suite.layers import LayerTally, profile_rows
from repro.bench.suite.reference import Reference, campaign_key, serve_seed_sets
from repro.bench.suite.report import RunOutcome, TimedUnit, peak_rss_mb, timed_values
from repro.bench.suite.simrun import execute_traced, shard_values, sim_layer_values
from repro.bench.suite.spans import SpanRecorder
from repro.bench.suite.workloads import Workload
from repro.campaign.client import CampaignClientError, request, watch
from repro.campaign.server import CampaignServer
from repro.campaign.spec import parse_campaign
from repro.experiments.runner import execute_point

Endpoint = Tuple[str, int]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """``python -m repro.campaign serve --jobs 1`` on fresh directories.

    The port is chosen here rather than discovered from the journal's
    endpoint file: opening a journal sweeps its ``*.tmp`` files, which
    would race the starting server's own endpoint publish.
    """

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True)
        self.cache_dir = root / "cache"
        self.endpoint: Endpoint = ("127.0.0.1", _free_port())
        self._log_path = root / "server.log"
        self._log = open(self._log_path, "w")
        self._ready = False
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign",
                "--journal-dir", str(root / "journal"),
                "serve", "--jobs", "1", "--cache-dir", str(self.cache_dir),
                "--host", self.endpoint[0], "--port", str(self.endpoint[1]),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=procs.child_env(),
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Return once the server answers ``ping``."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self._log.flush()
                raise RuntimeError(
                    f"campaign server exited with {self.proc.returncode} during "
                    f"start-up:\n{self._log_path.read_text()[-2000:]}"
                )
            try:
                if request(self.endpoint, {"op": "ping"}, timeout=10.0).get("ok"):
                    self._ready = True
                    return
            except CampaignClientError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"campaign server not ready after {timeout:.0f}s")

    def stop(self) -> Set[int]:
        """Shut down and reap; returns pids that outlived the server."""
        workers = procs.descendants(self.proc.pid)
        try:
            if not self._ready:
                self.proc.terminate()
            elif self.proc.poll() is None:
                request(self.endpoint, {"op": "shutdown"}, timeout=10.0)
            self.proc.wait(timeout=60.0)
        except (CampaignClientError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        leftover = {pid for pid in workers if procs.alive(pid)}
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        return leftover


class InProcessServer:
    """A :class:`CampaignServer` on a background event-loop thread,
    executing points on a one-thread executor."""

    def __init__(
        self,
        root: Path,
        execute_fn: Callable,
        wrap_cache: Optional[Callable] = None,
    ) -> None:
        root.mkdir(parents=True)
        self.root = root
        self.execute_fn = execute_fn
        self.wrap_cache = wrap_cache
        self.executor = ThreadPoolExecutor(max_workers=1)
        self.server: Optional[CampaignServer] = None
        self.endpoint: Optional[Endpoint] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=lambda: asyncio.run(self._serve()))

    async def _serve(self) -> None:
        self.server = CampaignServer(
            cache_dir=str(self.root / "cache"),
            journal_dir=str(self.root / "journal"),
            jobs=1,
            executor=self.executor,
            execute_fn=self.execute_fn,
        )
        if self.wrap_cache is not None:
            self.server.cache = self.wrap_cache(self.server.cache)
        await self.server.start()
        self.endpoint = (self.server.host, self.server.port)
        self._ready.set()
        await self.server.serve_forever()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("in-process campaign server did not start")

    def stop(self) -> None:
        if self.endpoint is not None:
            request(self.endpoint, {"op": "shutdown"}, timeout=10.0)
        if self._thread.is_alive():
            self._thread.join(timeout=60.0)
        self.executor.shutdown(wait=True)


class TimedCache:
    """Delegates to a :class:`~repro.experiments.cache.ResultCache`,
    counting and spanning every read and write."""

    def __init__(self, cache, trace: "ServeTrace") -> None:
        self._cache = cache
        self._trace = trace

    def get(self, point):
        self._trace.cache_reads += 1
        with self._trace.spans.span("experiments.cache_get"):
            return self._cache.get(point)

    def get_by_key(self, key):
        self._trace.cache_reads += 1
        with self._trace.spans.span("experiments.cache_get"):
            return self._cache.get_by_key(key)

    def put(self, point, result) -> None:
        self._trace.cache_writes += 1
        with self._trace.spans.span("experiments.cache_put"):
            self._cache.put(point, result)

    def __getattr__(self, name):
        return getattr(self._cache, name)


@dataclass
class ServeTrace:
    """What the traced server's instruments collected since ``reset``."""

    spans: SpanRecorder = field(default_factory=SpanRecorder)
    tally: LayerTally = field(default_factory=LayerTally)
    results: list = field(default_factory=list)
    loop_self_s: float = 0.0
    cache_reads: int = 0
    cache_writes: int = 0

    def reset(self) -> None:
        """Forget the warm-up: the server keeps its references to us."""
        self.spans = SpanRecorder()
        self.tally = LayerTally()
        self.results = []
        self.loop_self_s = 0.0
        self.cache_reads = self.cache_writes = 0

    def execute(self, point):
        """The server's ``execute_fn``: one point under the profiler."""
        began = time.perf_counter()
        result, _, profile, outside = execute_traced(point, point.label(), self.spans)
        self.tally.add(profile_rows(profile))
        self.loop_self_s += outside
        self.results.append(result)
        return result, time.perf_counter() - began


@dataclass
class Round:
    """One campaign round as the client saw it."""

    seeds: Tuple[int, ...]
    #: the campaign's point fingerprints, in fetch order
    fingerprints: Tuple[str, ...]
    wall: float = 0.0
    digest: Optional[str] = None
    fetched: int = 0
    #: seconds from submit to the served event of each executed point
    latencies: List[float] = field(default_factory=list)
    #: simulated cycles of the points this round executed
    executed_cycles: int = 0
    errors: List[str] = field(default_factory=list)
    #: the host's slowdown while the round ran (see ``hostspeed``)
    slowdown: float = 1.0

    def timed(self) -> TimedUnit:
        return TimedUnit(
            wall=self.wall,
            cycles=self.executed_cycles,
            points=self.fetched,
            latencies=self.latencies,
            slowdown=self.slowdown,
        )


def _span(spans: Optional[SpanRecorder], name: str):
    return spans.span(name) if spans is not None else nullcontext()


def run_round(
    endpoint: Endpoint,
    wl: Workload,
    seeds: Tuple[int, ...],
    spans: Optional[SpanRecorder] = None,
) -> Round:
    """Submit, watch to completion, fetch: one closed-loop round."""
    doc = wl.campaign(seeds)
    rnd = Round(seeds=seeds, fingerprints=parse_campaign(doc, wl.name).fingerprints)
    served: Dict[str, Tuple[float, str]] = {}
    began = time.perf_counter()
    with _span(spans, "campaign.submit"):
        reply = request(endpoint, {"op": "submit", "campaign": doc, "default_name": wl.name})
    if not reply.get("ok"):
        rnd.errors.append(f"submit refused: {reply.get('error')}")
        return rnd
    with _span(spans, "campaign.watch"):
        for event in watch(endpoint, reply["campaign"]):
            if event.get("ok") is False:
                rnd.errors.append(f"watch refused: {event.get('error')}")
            elif event.get("event") == "point" and event.get("state") == "served":
                served[event["fingerprint"]] = (
                    time.perf_counter() - began,
                    event.get("source", ""),
                )
            elif event.get("event") == "point" and event.get("state") == "failed":
                rnd.errors.append(f"{event.get('label')} failed: {event.get('error')}")
    with _span(spans, "campaign.fetch"):
        fetched = request(endpoint, {"op": "fetch", "campaign": reply["campaign"]})
    rnd.wall = time.perf_counter() - began
    if not fetched.get("ok"):
        rnd.errors.append(f"fetch refused: {fetched.get('error')}")
        return rnd
    rnd.digest = fetched["digest"]
    rnd.fetched = len(fetched["results"])
    for fp, payload in zip(rnd.fingerprints, fetched["results"]):
        if served.get(fp, (0.0, ""))[1] == "executed":
            rnd.latencies.append(served[fp][0])
            rnd.executed_cycles += int(payload["cycles"])
    return rnd


def run_rounds(
    endpoint: Endpoint,
    wl: Workload,
    seed_sets: Iterable[Tuple[int, ...]],
    seconds: Optional[float],
    spans: Optional[SpanRecorder] = None,
) -> Tuple[List[Round], float]:
    """Rounds in order until the ``seconds`` budget is spent (all of them
    when None), with a host-speed probe before and after every round;
    returns the rounds and the host seconds they took."""
    rounds: List[Round] = []
    probes = [hostspeed.probe(every_cpu=True)]
    budget = hostspeed.Budget(float("inf") if seconds is None else seconds)
    for seeds in seed_sets:
        rnd = run_round(endpoint, wl, seeds, spans)
        probes.append(hostspeed.probe(every_cpu=True))
        rnd.slowdown = hostspeed.slowdown(probes[-2:])
        rounds.append(rnd)
        budget.spend(rnd.wall, rnd.slowdown)
        if budget.spent:
            break
    return rounds, budget.host_s


class _Checker:
    """Checks served campaigns: each must come back whole and match the
    committed or directly computed reference, and a campaign served
    twice (by the traced and the plain server) must digest the same."""

    def __init__(self, wl: Workload, reference: Reference, outcome: RunOutcome) -> None:
        self.wl = wl
        self.reference = reference
        self.outcome = outcome
        #: campaign key -> (seeds, served digest)
        self.campaigns: Dict[str, Tuple[Tuple[int, ...], str]] = {}

    def add(self, rnd: Round) -> None:
        key = campaign_key(rnd.seeds)
        fps = rnd.fingerprints
        if rnd.errors:
            self.outcome.fail(f"campaign {key}: " + "; ".join(rnd.errors), *fps)
        elif rnd.fetched != len(fps):
            self.outcome.fail(
                f"campaign {key}: fetched {rnd.fetched} of {len(fps)} points", *fps
            )
        elif self.campaigns.setdefault(key, (rnd.seeds, rnd.digest))[1] != rnd.digest:
            self.outcome.fail(f"campaign {key}: served digests differ between servers", *fps)

    def check_reference(self) -> None:
        """Committed digests where covered; otherwise recompute the first,
        middle and last uncovered campaign on the single-engine path."""
        uncovered: List[str] = []
        for key, (seeds, digest) in self.campaigns.items():
            expected = self.reference.expected(self.wl.name, key)
            if expected is None:
                uncovered.append(key)
            elif digest != expected:
                self._mismatch(key, seeds)
        if not uncovered:
            return
        picks = [uncovered[i] for i in sorted({0, len(uncovered) // 2, len(uncovered) - 1})]
        memo: Dict[str, Dict[str, object]] = {}
        for key in picks:
            seeds, digest = self.campaigns[key]
            spec = parse_campaign(self.wl.campaign(seeds), self.wl.name)
            for fp, point in zip(spec.fingerprints, spec.points):
                if fp not in memo:
                    memo[fp] = execute_point(point)[0].to_dict()
            if digest != results_digest([memo[fp] for fp in spec.fingerprints]):
                self._mismatch(key, seeds)
        self.outcome.notes.append(
            f"{len(uncovered)} campaign(s) outside the committed reference; "
            f"{len(picks)} recomputed on the single-engine path"
        )

    def _mismatch(self, key: str, seeds: Tuple[int, ...]) -> None:
        spec = parse_campaign(self.wl.campaign(seeds), self.wl.name)
        self.outcome.fail(
            f"campaign {key}: digest differs from the reference", *spec.fingerprints
        )


def run_serve(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Reference,
    started: float,
) -> RunOutcome:
    """Run the serving workload for ``seconds``; see module doc.

    ``started`` is the ``perf_counter`` reading at the run's first line;
    the set-up time runs from it to the first timed round, so it covers
    the server reaching ``ping`` and the warm-up campaign.
    """
    outcome = RunOutcome()
    procs.RUNS_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=procs.RUNS_DIR))
    try:
        checker = _Checker(wl, reference, outcome)
        seed_sets = serve_seed_sets(seed)
        if trace:
            _serve_traced(wl, seed_sets, seconds, scratch, checker, outcome)
        else:
            _serve_untraced(
                wl, seed_sets, seconds, scratch, checker, outcome, started
            )
        checker.check_reference()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome


def _timed(rounds: List[Round], outcome: RunOutcome) -> None:
    """The timed rounds' fetched points are the run's operations."""
    outcome.operations = [fp for r in rounds for fp in r.fingerprints]
    outcome.points = [campaign_key(r.seeds) for r in rounds]


def _serve_untraced(
    wl: Workload,
    seed_sets: Iterator[Tuple[int, ...]],
    seconds: float,
    scratch: Path,
    checker: _Checker,
    outcome: RunOutcome,
    started: float,
) -> None:
    server = ServerProcess(scratch / "serve")
    try:
        server.wait_ready()
        warm, _ = run_rounds(server.endpoint, wl, [next(seed_sets)], None)
        setup = time.perf_counter() - started
        rounds, _ = run_rounds(server.endpoint, wl, seed_sets, seconds)
    finally:
        leftover = server.stop()
    if leftover:
        outcome.fail(f"server left {len(leftover)} process(es) running")
    claims = list((server.cache_dir / "inflight").glob("*.claim"))
    if claims:
        outcome.fail(f"server left {len(claims)} in-flight claim file(s)")
    for rnd in warm + rounds:
        checker.add(rnd)
    _timed(rounds, outcome)

    units = [r.timed() for r in rounds]
    outcome.host_values = timed_values(units, setup, scaled=False)
    outcome.values.update({**timed_values(units, setup), "peak_rss_mb": peak_rss_mb()})
    outcome.notes.append(
        f"{len(rounds)} rounds, {sum(len(r.latencies) for r in rounds)} executed "
        "points timed from submit to their served event"
    )


def _serve_traced(
    wl: Workload,
    seed_sets: Iterator[Tuple[int, ...]],
    seconds: float,
    scratch: Path,
    checker: _Checker,
    outcome: RunOutcome,
) -> None:
    traced = ServeTrace()
    server = InProcessServer(
        scratch / "traced",
        execute_fn=traced.execute,
        wrap_cache=lambda cache: TimedCache(cache, traced),
    )
    warm_seeds = next(seed_sets)
    try:
        server.start()
        warm, _ = run_rounds(server.endpoint, wl, [warm_seeds], None)
        counters_before = server.server.metrics.to_dict()
        traced.reset()
        rounds, traced_wall = run_rounds(
            server.endpoint, wl, seed_sets, seconds, traced.spans
        )
        counters = server.server.metrics.to_dict()
    finally:
        server.stop()
    for rnd in warm + rounds:
        checker.add(rnd)
    _timed(rounds, outcome)

    # the same rounds, uninstrumented: the overhead baseline and a
    # check that instrumenting the server changed no served result
    plain = InProcessServer(scratch / "untraced", execute_fn=execute_point)
    try:
        plain.start()
        run_rounds(plain.endpoint, wl, [warm_seeds], None)
        replayed, untraced_wall = run_rounds(
            plain.endpoint, wl, [r.seeds for r in rounds], None
        )
    finally:
        plain.stop()
    for rnd in replayed:
        checker.add(rnd)

    processed = sum(r.events_processed for r in traced.results)
    if traced.tally.total_events != processed:
        outcome.fail(
            f"per-layer events sum to {traced.tally.total_events}, "
            f"runs processed {processed}"
        )
    spans = traced.spans

    def delta(name: str) -> float:
        return counters.get(name, 0) - counters_before.get(name, 0)

    requested = delta("points_requested")
    outcome.values.update(
        sim_layer_values(traced.tally, spans, traced.results, traced.loop_self_s)
    )
    outcome.values.update(shard_values([], 0.0))
    outcome.values.update(
        {
            "experiments.cache_reads": traced.cache_reads,
            "experiments.cache_writes": traced.cache_writes,
            "experiments.cache_get_share": spans.total("experiments.cache_get") / traced_wall,
            "experiments.cache_put_share": spans.total("experiments.cache_put") / traced_wall,
            "campaign.submit_share": spans.total("campaign.submit") / traced_wall,
            "campaign.fetch_share": spans.total("campaign.fetch") / traced_wall,
            "campaign.points_executed": delta("points_executed"),
            "campaign.points_served_memo": delta("points_served_memo"),
            "campaign.dedupe_ratio": (
                (requested - delta("points_executed")) / requested if requested else 0.0
            ),
            "obs.trace_overhead_ratio": traced_wall / untraced_wall,
        }
    )
    outcome.spans = spans
