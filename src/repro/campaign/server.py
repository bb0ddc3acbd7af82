"""The campaign server: a long-lived experiment-serving front end.

A single-process asyncio server that accepts campaigns
(:mod:`repro.campaign.spec`), executes their points through the existing
runner on a bounded worker pool, and serves results from the shared
:class:`~repro.experiments.cache.ResultCache` — with three guarantees:

**Dedupe.**  Points are identified by
:func:`~repro.experiments.cache.fingerprint`.  Concurrent campaigns
containing the same point share one in-process task (and therefore one
execution); across *processes* the cache dir's in-flight claims extend
the same guarantee to external ``run_many`` clients — whoever wins the
claim executes, everyone else follows the published result.

**Streaming progress.**  Clients subscribe to per-campaign event streams
(newline-delimited JSON over a localhost TCP socket): every point's
``queued -> running -> served`` transitions with its source
(``executed``/``cache``/``peer``) and wall time, plus campaign-level
completion carrying :class:`~repro.obs.CounterSet`-style hit/miss
counters.

**Durability.**  Campaign membership journals through
:mod:`repro.atomicio` (:class:`~repro.campaign.journal.CampaignJournal`)
once per campaign, at submission (and again only when a resubmission
raises its priority); results live in the content-addressed cache, and
completion is derived from it rather than journaled.  A restarted server
therefore resumes unfinished campaigns and re-serves completed ones
without re-executing anything whose result survived.  A point is served
only after its result is durably published to the cache.

Scheduling is priority-first (higher ``priority`` campaigns dispatch
before lower, FIFO within a priority); a point shared between campaigns
runs at the highest priority any of them asked for.  The pool
(:class:`~repro.campaign.pool.LoopPool` unless an executor is injected)
is kept one point ahead: up to ``POINTS_PER_WORKER`` (two) points per
worker are claimed and handed to it, one executing and one waiting in
the pool's call pipe, so a worker starts its next point the moment it
finishes the last instead of idling through the server's round trip.
A point's ``running`` event therefore means "handed to the pool", and
its ``wall_seconds`` count from that moment; a campaign arriving later,
however urgent, can wait behind at most ``2 * jobs`` already dispatched
points.  When an execution returns, the freed slot goes to the next
queued point *before* the finished point's result is published.
:meth:`CampaignServer.stop` lets every dispatched point finish, publish
and release its claim.  Each point's fingerprint is computed once, when
its campaign is parsed, and the cache is looked up and claimed by it.

An executed result is converted once
(:func:`~repro.experiments.cache.encode_result`): the one ``to_dict``
payload feeds both its cache entry and the fetch memo.  ``fetch``
serves the results this server published itself from memory: the last
``FETCH_LRU_ENTRIES`` are kept as their reply JSON and their digest
encoding (:func:`~repro.bench.smoke.digest_encoding`), which the reply
and its digest splice, and one is used only while its cache file still
exists, so a pruned result is still noticed and re-executed.  Every
other result is read from the cache.  A watcher gets every event
already queued in one write.  A request line longer than
``MAX_REQUEST_BYTES``, or one that is not a JSON object, gets an error
reply.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bench.smoke import digest_encoding, digest_of_encodings
from repro.campaign.journal import CampaignJournal
from repro.campaign.pool import LoopPool
from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    parse_campaign,
    point_from_descriptor,
)
from repro.experiments.cache import (
    EncodedResult,
    ResultCache,
    acquire,
    encode_result,
    json_object,
)
from repro.experiments.runner import ExperimentPoint, execute_point
from repro.obs import CounterSet

#: protocol version stamped on every response/event line
PROTOCOL_VERSION = 1

#: how often a point following a cross-process claim re-polls the cache
PEER_POLL_SECONDS = 0.05

#: pool slots per worker: one point executing, one queued behind it
POINTS_PER_WORKER = 2

#: results this server published that ``fetch`` serves from memory
#: (a few KB each for the serving benchmark's tiny points)
FETCH_LRU_ENTRIES = 128

#: longest request line read; a longer one gets an error reply
MAX_REQUEST_BYTES = 4 * 1024 * 1024


def _line(payload: Dict) -> bytes:
    """One protocol line: ``payload`` stamped with the protocol version."""
    payload.setdefault("v", PROTOCOL_VERSION)
    return json.dumps(payload).encode("utf-8") + b"\n"


def _fetch_encodings(encoded: EncodedResult) -> Tuple[str, str]:
    """What a fetch reply needs of one result: its JSON and its digest
    encoding, each computed once."""
    return encoded.text, digest_encoding(encoded.payload)


@dataclass
class PointTask:
    """One in-flight unique point, shared by every campaign naming it."""

    fingerprint: str
    #: the point to execute; dropped once the task is done
    point: Optional[ExperimentPoint]
    label: str
    priority: int
    seq: int
    state: str = "queued"  # queued | running | done
    source: Optional[str] = None  # executed | cache | peer
    started: float = 0.0
    wall_seconds: float = 0.0
    campaigns: Set[str] = field(default_factory=set)


@dataclass
class CampaignState:
    """One submitted campaign: ordered membership plus its watchers.

    Point descriptors are journaled, not kept here; the rare fetch that
    finds results pruned re-reads them from the campaign's record.
    """

    id: str
    name: str
    priority: int
    #: (fingerprint, label) in submission order — fetch/digest order
    points: List[Tuple[str, str]]
    submitted_at: float
    done: Set[str] = field(default_factory=set)
    watchers: List[asyncio.Queue] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return len(self.done) >= len(self.points)

    def progress(self) -> Dict[str, int]:
        return {"points": len(self.points), "done": len(self.done)}


class CampaignServer:
    """Serve campaigns over newline-delimited JSON on a local socket."""

    def __init__(
        self,
        cache_dir: str,
        journal_dir: str,
        jobs: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Optional[Executor] = None,
        execute_fn: Optional[Callable] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir)
        self.journal = CampaignJournal(journal_dir)
        self.jobs = max(1, int(jobs))
        self.host = host
        self.port = port
        self.metrics = CounterSet()
        self.campaigns: Dict[str, CampaignState] = {}
        self.tasks: Dict[str, PointTask] = {}
        #: lazy-invalidation priority heap of (-priority, seq, fingerprint)
        self._queue: List[Tuple[int, int, str]] = []
        self._seq = 0
        #: pool slots in use: points handed to the pool, or following a
        #: peer's claim; at most ``POINTS_PER_WORKER * jobs``
        self._running = 0
        #: fingerprint -> (reply JSON, digest encoding) of the results
        #: this server put, least recently used first
        self._published: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()
        self._executions: Set[asyncio.Future] = set()
        self._followers: Set[asyncio.Task] = set()
        self._stopping = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._owns_executor = executor is None
        self._executor = executor
        self._execute = execute_fn or execute_point

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, recover journaled campaigns, and begin dispatching."""
        if self._owns_executor:
            # an injected execute_fn runs on threads (it need not pickle),
            # still ``jobs`` at a time
            if self._execute is not execute_point:
                self._executor = ThreadPoolExecutor(max_workers=self.jobs)
            else:
                self._executor = LoopPool(self.jobs, asyncio.get_running_loop())
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_REQUEST_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.journal.publish_endpoint(self.host, self.port)
        self._dispatch()

    async def serve_forever(self) -> None:
        await self._stopping.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, let every point already
        handed to the pool finish, publish and release its claim.

        Points still queued stay journaled and run after a restart.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._queue.clear()
        while self._executions or self._followers:
            await asyncio.wait({*self._executions, *self._followers})
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
        self.journal.clear_endpoint()
        self._stopping.set()

    def _recover(self) -> None:
        """Replay the journal: re-serve complete campaigns, re-enqueue
        unfinished points (cached results count as already done)."""
        for record in self.journal.load_all():
            campaign = CampaignState(
                id=record["id"],
                name=record.get("name", record["id"]),
                priority=int(record.get("priority", 0)),
                points=[(p["fingerprint"], p["label"]) for p in record["points"]],
                submitted_at=float(record.get("submitted_at", 0.0)),
            )
            self.campaigns[campaign.id] = campaign
            for entry in record["points"]:
                fp = entry["fingerprint"]
                if self.cache.get_by_key(fp) is not None:
                    campaign.done.add(fp)
                    continue
                # the cached result is gone (pruned, or never finished):
                # rebuild the point from its journaled descriptor and
                # queue a re-execution
                point = point_from_descriptor(entry["descriptor"])
                self._enqueue_point(fp, point, entry["label"], campaign)
                self.metrics.inc("points_recovered")
            self.metrics.inc("campaigns_recovered")

    # -- submission & scheduling ---------------------------------------------

    def _enqueue_point(
        self, fp: str, point: ExperimentPoint, label: str, campaign: CampaignState
    ) -> PointTask:
        task = self.tasks.get(fp)
        if task is not None and task.state != "done":
            task.campaigns.add(campaign.id)
            if campaign.priority > task.priority and task.state == "queued":
                # shared points run at the highest interested priority
                task.priority = campaign.priority
                heapq.heappush(self._queue, (-task.priority, task.seq, fp))
            self.metrics.inc("points_deduped_inflight")
            return task
        self._seq += 1
        task = PointTask(
            fingerprint=fp,
            point=point,
            label=label,
            priority=campaign.priority,
            seq=self._seq,
            campaigns={campaign.id},
        )
        self.tasks[fp] = task
        heapq.heappush(self._queue, (-task.priority, task.seq, fp))
        return task

    def submit(self, spec: CampaignSpec) -> Dict[str, object]:
        """Register a campaign; returns the submission summary.

        Dispatch runs at the end of the current event-loop step, so
        campaigns submitted together start in priority order.
        """
        cid = spec.campaign_id
        self.metrics.inc("campaigns_submitted")
        self.metrics.inc("points_requested", len(spec.points))
        existing = self.campaigns.get(cid)
        if existing is not None:
            # content-addressed resubmission: same points, same campaign.
            # Raise the priority of anything still pending if asked.
            self.metrics.inc("campaigns_resubmitted")
            if spec.priority > existing.priority:
                existing.priority = spec.priority
                for fp, _ in existing.points:
                    task = self.tasks.get(fp)
                    if task is not None and task.state == "queued":
                        task.priority = max(task.priority, spec.priority)
                        heapq.heappush(self._queue, (-task.priority, task.seq, fp))
                self._journal_campaign(existing, spec)
            return self._submission_summary(existing, resubmitted=True)

        campaign = CampaignState(
            id=cid,
            name=spec.name,
            priority=spec.priority,
            points=[
                (fp, point.label())
                for fp, point in zip(spec.fingerprints, spec.points)
            ],
            submitted_at=time.time(),
        )
        self.campaigns[cid] = campaign
        for fp, point in zip(spec.fingerprints, spec.points):
            done_task = self.tasks.get(fp)
            if done_task is not None and done_task.state == "done":
                campaign.done.add(fp)
                self.metrics.inc("points_served_memo")
                continue
            if done_task is None and self.cache.get_by_key(fp) is not None:
                campaign.done.add(fp)
                self.metrics.inc("points_served_cache")
                continue
            self._enqueue_point(fp, point, point.label(), campaign)
        self._journal_campaign(campaign, spec)
        asyncio.get_running_loop().call_soon(self._dispatch)
        self._emit(
            campaign,
            {
                "event": "campaign",
                "state": "accepted" if not campaign.complete else "complete",
                **campaign.progress(),
            },
        )
        return self._submission_summary(campaign, resubmitted=False)

    def _submission_summary(
        self, campaign: CampaignState, resubmitted: bool
    ) -> Dict[str, object]:
        pending = [fp for fp, _ in campaign.points if fp not in campaign.done]
        return {
            "campaign": campaign.id,
            "name": campaign.name,
            "priority": campaign.priority,
            "points": len(campaign.points),
            "pending": len(pending),
            "complete": campaign.complete,
            "resubmitted": resubmitted,
        }

    def _journal_campaign(self, campaign: CampaignState, spec: CampaignSpec) -> None:
        """Journal membership: the spec's descriptors, the campaign's
        name and priority.  Completion is derived from the cache."""
        self.journal.save(
            {
                "id": campaign.id,
                "name": campaign.name,
                "priority": campaign.priority,
                "submitted_at": campaign.submitted_at,
                "points": [
                    {"fingerprint": fp, "label": label, "descriptor": descriptor}
                    for (fp, label), descriptor in zip(
                        campaign.points, spec.descriptors
                    )
                ],
            }
        )

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self) -> None:
        """Start queued points, highest priority first, while slots are free.

        There are ``POINTS_PER_WORKER`` slots per worker, so each worker
        has a point queued behind the one it executes.  Synchronous: when
        an execution returns, :meth:`_executed` calls this before
        publishing the finished point.
        """
        while self._queue and self._running < POINTS_PER_WORKER * self.jobs:
            _, _, fp = heapq.heappop(self._queue)
            task = self.tasks.get(fp)
            if task is None or task.state != "queued":
                continue  # lazily-invalidated heap entry
            task.state = "running"
            task.started = time.perf_counter()
            self._emit_point(task, "running")
            self._running += 1
            try:
                holds_slot = self._start(task)
            except Exception as exc:
                holds_slot = False
                self._finish_point(task, error=exc)
            if not holds_slot:
                self._running -= 1

    def _start(self, task: PointTask) -> bool:
        """Serve a cached result, or claim and execute, or follow a peer
        process's claim; True while the point holds its slot."""
        holds_slot = self._claim_step(task, hit_source="cache")
        if holds_slot is not None:
            return holds_slot
        follower = asyncio.get_running_loop().create_task(self._follow(task))
        self._followers.add(follower)
        follower.add_done_callback(self._followers.discard)
        return True

    def _claim_step(self, task: PointTask, hit_source: str) -> Optional[bool]:
        """One :func:`~repro.experiments.cache.acquire` step: serve a
        published result (a peer's, when it landed between the miss and
        the claim win), or submit the claimed point to the pool (True);
        ``None`` while a peer process holds the claim."""
        status, _ = acquire(self.cache, task.fingerprint)
        if status == "busy":
            return None
        if status != "owned":
            self._finish_point(task, hit_source if status == "hit" else "peer")
            return False
        try:
            future = asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute, task.point
            )
        except BaseException:
            self.cache.release(task.fingerprint)
            raise
        self._executions.add(future)
        future.add_done_callback(functools.partial(self._executed, task))
        return True

    def _executed(self, task: PointTask, future: asyncio.Future) -> None:
        """An execution returned: hand its slot to the next queued point,
        then publish this point durably, release its claim, serve it."""
        self._executions.discard(future)
        self._running -= 1
        self._dispatch()
        error = None
        try:
            result, seconds = future.result()
            encoded = encode_result(result)
            self.cache.put(task.point, encoded)
            self._remember(task.fingerprint, encoded)
            self.metrics.inc("exec_seconds", seconds)
        except (Exception, asyncio.CancelledError) as exc:
            error = exc
        self.cache.release(task.fingerprint)
        self._finish_point(task, "executed", error)

    def _remember(self, fp: str, encoded: EncodedResult) -> None:
        """Keep a published result's encodings for :meth:`_published_result`."""
        self._published[fp] = _fetch_encodings(encoded)
        self._published.move_to_end(fp)
        if len(self._published) > FETCH_LRU_ENTRIES:
            self._published.popitem(last=False)

    def _published_result(self, fp: str) -> Optional[Tuple[str, str]]:
        """The (reply JSON, digest encoding) of ``fp``'s result, or None
        when it is not cached.

        A result this server published comes from memory while its
        cache file exists; any other is read from the cache.
        """
        encodings = self._published.get(fp)
        if encodings is not None:
            try:
                os.stat(self.cache.path_for(fp))
            except OSError:
                del self._published[fp]  # pruned: the read below misses
            else:
                self._published.move_to_end(fp)
                return encodings
        result = self.cache.get_by_key(fp)
        return None if result is None else _fetch_encodings(encode_result(result))

    async def _follow(self, task: PointTask) -> None:
        """Wait out a peer process's claim: serve the result it publishes,
        or execute the point if the claim frees up first."""
        try:
            holds_slot = None
            while holds_slot is None:
                await asyncio.sleep(PEER_POLL_SECONDS)
                holds_slot = self._claim_step(task, hit_source="peer")
        except Exception as exc:
            holds_slot = False
            self._finish_point(task, error=exc)
        if not holds_slot:
            self._running -= 1
            self._dispatch()

    def _finish_point(
        self,
        task: PointTask,
        source: Optional[str] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Mark ``task`` done and notify every campaign naming it."""
        task.state = "done"
        task.point = None
        task.wall_seconds = time.perf_counter() - task.started
        if error is None:
            task.source = source
            self.metrics.inc(
                "points_executed" if source == "executed" else f"points_served_{source}"
            )
            message = None
        else:
            task.source = "error"
            self.metrics.inc("points_failed")
            message = f"{type(error).__name__}: {error}"
        for cid in sorted(task.campaigns):
            campaign = self.campaigns.get(cid)
            if campaign is None:
                continue
            if error is None:
                campaign.done.add(task.fingerprint)
            self._emit_point(task, "served" if error is None else "failed", cid, message)
            if campaign.complete:
                self._emit(
                    campaign,
                    {
                        "event": "campaign",
                        "state": "complete",
                        **campaign.progress(),
                        "counters": self.metrics.to_dict(),
                    },
                )

    # -- events --------------------------------------------------------------

    def _emit(self, campaign: CampaignState, event: Dict[str, object]) -> None:
        payload = {"v": PROTOCOL_VERSION, "campaign": campaign.id, **event}
        for queue in list(campaign.watchers):
            queue.put_nowait(payload)

    def _emit_point(
        self,
        task: PointTask,
        state: str,
        only_campaign: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        for cid in sorted(task.campaigns):
            if only_campaign is not None and cid != only_campaign:
                continue
            campaign = self.campaigns.get(cid)
            if campaign is None:
                continue
            event = {
                "event": "point",
                "state": state,
                "label": task.label,
                "fingerprint": task.fingerprint,
            }
            if task.source is not None:
                event["source"] = task.source
            if state == "served":
                event["wall_seconds"] = round(task.wall_seconds, 6)
                event.update(campaign.progress())
            if error is not None:
                event["error"] = error
            self._emit(campaign, event)

    # -- protocol ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # the client closed without a newline
            except asyncio.LimitOverrunError:
                await self._skip_line(reader)
                await self._send(
                    writer,
                    {
                        "ok": False,
                        "error": f"request too large (limit {MAX_REQUEST_BYTES} bytes)",
                    },
                )
                return
            if not line:
                return
            try:
                request = json.loads(line)
            except (ValueError, RecursionError):
                await self._send(writer, {"ok": False, "error": "bad JSON request"})
                return
            if not isinstance(request, dict):
                await self._send(
                    writer, {"ok": False, "error": "request must be a JSON object"}
                )
                return
            op = request.get("op")
            handlers = {
                "ping": self._op_ping,
                "submit": self._op_submit,
                "status": self._op_status,
                "fetch": self._op_fetch,
                "watch": self._op_watch,
                "shutdown": self._op_shutdown,
            }
            handler = handlers.get(op) if isinstance(op, str) else None
            if handler is None:
                await self._send(
                    writer, {"ok": False, "error": f"unknown op {op!r}"}
                )
                return
            await handler(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _skip_line(reader: asyncio.StreamReader) -> None:
        """Read and drop the rest of an over-long request line, so the
        error reply is not lost to a reset from unread input."""
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk or b"\n" in chunk:
                return

    async def _send(self, writer: asyncio.StreamWriter, *payloads: Dict) -> None:
        """Write ``payloads`` as lines in one write, then drain."""
        writer.write(b"".join(map(_line, payloads)))
        await writer.drain()

    async def _op_ping(self, request, writer) -> None:
        await self._send(
            writer,
            {
                "ok": True,
                "campaigns": len(self.campaigns),
                "queued": sum(
                    1 for t in self.tasks.values() if t.state == "queued"
                ),
                "running": self._running,
                "counters": self.metrics.to_dict(),
            },
        )

    async def _op_submit(self, request, writer) -> None:
        try:
            spec = parse_campaign(
                request.get("campaign"), request.get("default_name", "campaign")
            )
        except CampaignSpecError as exc:
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        except (AttributeError, TypeError, ValueError) as exc:
            # a value of the wrong type deep in the campaign, e.g. a seed
            # that is not a number or a flap window that is not an object
            await self._send(
                writer,
                {"ok": False, "error": f"bad campaign: {type(exc).__name__}: {exc}"},
            )
            return
        summary = self.submit(spec)
        await self._send(writer, {"ok": True, **summary})

    def _campaign_status(self, campaign: CampaignState) -> Dict[str, object]:
        states: Dict[str, int] = {"done": len(campaign.done), "queued": 0, "running": 0}
        for fp, _ in campaign.points:
            if fp in campaign.done:
                continue
            task = self.tasks.get(fp)
            state = task.state if task is not None else "queued"
            states[state] = states.get(state, 0) + 1
        return {
            "campaign": campaign.id,
            "name": campaign.name,
            "priority": campaign.priority,
            "complete": campaign.complete,
            **campaign.progress(),
            "states": states,
        }

    async def _find_campaign(self, request, writer) -> Optional[CampaignState]:
        """The campaign ``request`` names, or None after an error reply."""
        cid = request.get("campaign")
        if not isinstance(cid, str):
            error = f"campaign id must be a string, got {type(cid).__name__}"
        elif cid not in self.campaigns:
            error = f"unknown campaign {cid!r}"
        else:
            return self.campaigns[cid]
        await self._send(writer, {"ok": False, "error": error})
        return None

    async def _op_status(self, request, writer) -> None:
        if request.get("campaign") is not None:
            campaign = await self._find_campaign(request, writer)
            if campaign is None:
                return
            await self._send(
                writer,
                {
                    "ok": True,
                    **self._campaign_status(campaign),
                    "counters": self.metrics.to_dict(),
                },
            )
            return
        await self._send(
            writer,
            {
                "ok": True,
                "campaigns": [
                    self._campaign_status(c)
                    for c in sorted(
                        self.campaigns.values(), key=lambda c: c.submitted_at
                    )
                ],
                "counters": self.metrics.to_dict(),
            },
        )

    async def _op_fetch(self, request, writer) -> None:
        campaign = await self._find_campaign(request, writer)
        if campaign is None:
            return
        cid = campaign.id
        if not campaign.complete:
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": "campaign incomplete",
                    **self._campaign_status(campaign),
                },
            )
            return
        results: List[Tuple[str, str]] = []
        missing = []
        for fp, label in campaign.points:
            encodings = self._published_result(fp)
            if encodings is None:
                missing.append({"fingerprint": fp, "label": label})
            else:
                results.append(encodings)
        if missing:
            # cached results were pruned after completion: demote the
            # campaign and re-enqueue from the journaled descriptors so a
            # follow-up fetch succeeds (membership is unchanged: no save)
            record = self.journal.load(cid)
            if record is None:
                await self._send(
                    writer,
                    {
                        "ok": False,
                        "error": "results pruned and journal record unreadable",
                        "missing": missing,
                    },
                )
                return
            descriptors = {p["fingerprint"]: p["descriptor"] for p in record["points"]}
            labels = dict(campaign.points)
            for entry in missing:
                fp = entry["fingerprint"]
                campaign.done.discard(fp)
                point = point_from_descriptor(descriptors[fp])
                self._enqueue_point(fp, point, labels[fp], campaign)
            self._dispatch()
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": "results pruned; re-executing",
                    "missing": missing,
                },
            )
            return
        # json.dumps of the reply {"ok", "campaign", "points", "results",
        # "digest", "v"}, with each result's kept encodings spliced in
        reply = json_object(
            (
                ("ok", "true"),
                ("campaign", json.dumps(cid)),
                ("points", str(len(results))),
                ("results", "[" + ", ".join(text for text, _ in results) + "]"),
                ("digest", json.dumps(digest_of_encodings([d for _, d in results]))),
                ("v", str(PROTOCOL_VERSION)),
            )
        )
        writer.write(reply.encode("utf-8") + b"\n")
        await writer.drain()

    async def _op_watch(self, request, writer) -> None:
        campaign = await self._find_campaign(request, writer)
        if campaign is None:
            return
        cid = campaign.id
        queue: asyncio.Queue = asyncio.Queue()
        campaign.watchers.append(queue)
        try:
            await self._send(
                writer, {"ok": True, "event": "snapshot", **self._campaign_status(campaign)}
            )
            if campaign.complete:
                await self._send(
                    writer,
                    {
                        "event": "campaign",
                        "campaign": cid,
                        "state": "complete",
                        **campaign.progress(),
                        "counters": self.metrics.to_dict(),
                    },
                )
                return
            while True:
                # every event already queued goes out in one write, up to
                # and including the campaign's completion
                events = [await queue.get()]
                while not queue.empty():
                    events.append(queue.get_nowait())
                for end, event in enumerate(events, 1):
                    if event.get("event") == "campaign" and event.get("state") == "complete":
                        await self._send(writer, *events[:end])
                        return
                await self._send(writer, *events)
        finally:
            try:
                campaign.watchers.remove(queue)
            except ValueError:
                pass

    async def _op_shutdown(self, request, writer) -> None:
        await self._send(writer, {"ok": True, "stopping": True})
        asyncio.get_running_loop().create_task(self.stop())
