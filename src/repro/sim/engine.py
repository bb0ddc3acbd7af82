"""Event engine: a deterministic discrete-event scheduler.

All simulated time is expressed in integer cycles of the 1 GHz core clock
(per the paper's Table 2 every structure is clocked at 1 GHz, so a single
clock domain suffices).  Events scheduled for the same cycle fire in the
order they were scheduled (FIFO tie-break), which keeps runs
reproducible.

Ordering model
--------------

Pending events are ordered by ``(time, skey, seq)``: the cycle the event
fires at, the cycle it was *scheduled* at (its schedule key), and its
insertion order.  Locally the clock never moves backwards while events
execute, so ``skey`` is non-decreasing in ``seq`` and the order is the
classic ``(time, seq)`` FIFO.  The point of ``skey`` is cluster-sharded
execution (:mod:`repro.shard`): an event another shard's engine sends
through :meth:`inject` is ordered by when its cause happened (the remote send
cycle), not by when the mailbox delivered it, so dispatch order is a
pure function of simulated causality.

Queue structure
---------------

One bucket per cycle: ``_buckets`` maps a cycle to its list of ``(skey,
callback, args)``, and ``_times`` is a heap of the cycles whose bucket
has not started.  Scheduling appends — its ``skey`` is the clock, never
below a resident's — so list order is ``(skey, seq)`` order with no
``seq`` stored; an injection goes in with ``insort_right`` on the
schedule key, after every resident of equal key, where its ``seq``
would put it.  Dispatch pops the next cycle and runs its bucket (``_cur``)
front to back, ``_pos`` entries done; events scheduled into the running
cycle extend the list and run in the same pass.

One corner: after :meth:`rewind`, a :meth:`schedule` can append to a
bucket that holds an event with a larger schedule key.  The bucket keeps
arrival order there, and an :meth:`inject` into it bisects a list no
longer sorted by key.  Sharded kernel replay rewinds only over events that
commute with the replayed chain, so such a pair's order does not change
the run; the sharded digest and checkpoint gates check it.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the schedule key of a bucket entry ``(skey, callback, args)``
_skey = itemgetter(0)


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Engine:
    """A discrete-event scheduler with integer-cycle timestamps."""

    def __init__(self) -> None:
        self._now = 0
        #: events of the buckets dispatched to the end; the running
        #: bucket's dispatched entries are ``_pos`` on top
        self._done = 0
        self._running = False
        #: schedule key of the event currently being dispatched; sharded
        #: quiesce analysis reads it to order drains against poll events
        self.cur_skey = 0
        #: optional :class:`repro.obs.profiler.EngineProfiler`; when set,
        #: every dispatched callback is timed and attributed per class
        self.profiler = None
        self._buckets: Dict[int, List[Tuple[int, Callable[..., None], tuple]]] = {}
        #: heap of the cycles whose bucket has not started dispatching
        self._times: List[int] = []
        #: the bucket at ``_now`` being dispatched (``()`` when none) and
        #: the count of its entries already dispatched
        self._cur: Any = ()
        self._pos = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._done + self._pos

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs the callback later
        in the current cycle (after all previously scheduled same-cycle
        events).  Every bucket lies at or after the clock and at a whole
        cycle, so a negative or fractional delay never finds one: both
        checks run only when a bucket is created.
        """
        now = self._now
        time = now + delay
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append((now, callback, args))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # timestamps must stay integers (cycle arithmetic all over the
        # model is exact integer math), so non-int delays are coerced
        if type(time) is not int:
            return self.schedule(int(delay), callback, *args)
        self._buckets[time] = [(now, callback, args)]
        heappush(self._times, time)

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``time``
        (checked, like :meth:`schedule`'s delay, when a bucket is created)."""
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append((self._now, callback, args))
            return
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current cycle is {now}"
            )
        if type(time) is not int:
            return self.schedule_at(int(time), callback, *args)
        self._buckets[time] = [(now, callback, args)]
        heappush(self._times, time)

    def inject(self, time: int, skey: int, callback: Callable[..., None], *args: Any) -> None:
        """Insert an event whose *cause* happened at cycle ``skey``.

        Cross-shard mailbox delivery: the event is ordered as if it had
        been scheduled at ``skey`` (the remote send cycle), even though it
        is being inserted later in wall-clock terms.  ``time`` must still
        be in this engine's future — conservative windows guarantee that —
        except between runs, where insertion at the current cycle is
        allowed (kernel replay after :meth:`rewind`), and during a run,
        where it is allowed when ``skey`` is not below the running event's
        schedule key: the new entry then sorts after the running event,
        into the part of the cycle not yet dispatched.
        """
        now = self._now
        if time < now or (time == now and self._running and skey < self.cur_skey):
            raise SimulationError(
                f"cannot inject at cycle {time} (schedule key {skey}): current "
                f"cycle is {now}, running schedule key {self.cur_skey}"
            )
        if skey > time:
            raise SimulationError(f"inject skey {skey} is after its time {time}")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(skey, callback, args)]
            heappush(self._times, time)
        else:
            # never into the dispatched prefix of the running bucket
            lo = self._pos if time == now else 0
            insort(bucket, (skey, callback, args), lo, key=_skey)

    def rewind(self, time: int) -> None:
        """Move the clock to ``time``, which may lie in the executed past.

        Used by sharded kernel-boundary replay: the coordinator proves the
        next kernel launches at cycle ``q`` possibly a few cycles behind
        the shard's frontier, and that the events already executed beyond
        ``q`` commute with the launch chain (they touch disjoint state).
        Pending events are preserved; subsequent scheduling happens
        relative to the rewound clock (see the module docstring for the
        order of a bucket that then mixes schedule keys).
        """
        if self._running:
            raise SimulationError("cannot rewind while running")
        if time < 0:
            raise SimulationError(f"cannot rewind to negative cycle {time}")
        self._requeue()
        self._now = time

    def _requeue(self) -> None:
        """Settle the running bucket: drop its dispatched prefix and put
        the rest back as a bucket not yet started (or delete it, empty)."""
        pos = self._pos
        if not pos:
            return
        bucket = self._cur
        del bucket[:pos]
        self._done += pos
        self._pos = 0
        self._cur = ()
        if bucket:
            heappush(self._times, self._now)
        else:
            del self._buckets[self._now]

    # -- snapshot protocol -------------------------------------------------

    def __getstate__(self) -> dict:
        """Normalized pickle state: the pending set as ``(time, skey,
        callback, args)`` in dispatch order.

        A snapshot taken inside a callback drops the running bucket's
        dispatched prefix (the running event included), as
        :meth:`_requeue` does: keeping it would resurrect dispatched
        events on restore and drag dead continuations into the snapshot.
        """
        buckets = self._buckets
        cur = self._cur
        pending = [
            (time, skey, callback, args)
            for time in sorted(buckets)
            for skey, callback, args in (
                buckets[time][self._pos :] if buckets[time] is cur else buckets[time]
            )
        ]
        return {
            "now": self._now,
            "events_processed": self.events_processed,
            "cur_skey": self.cur_skey,
            "profiler": self.profiler,
            "pending": pending,
        }

    def __setstate__(self, state: dict) -> None:
        """Rebuild the buckets: the pending list is in dispatch order, so
        appends restore each bucket and its cycles arrive heap-ordered.
        The restored engine is not running; the resumed run re-enters
        :meth:`run` from the top."""
        self.__init__()
        self._now = state["now"]
        self._done = state["events_processed"]
        self.cur_skey = state["cur_skey"]
        self.profiler = state["profiler"]
        buckets = self._buckets
        for time, skey, callback, args in state["pending"]:
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [(skey, callback, args)]
                self._times.append(time)
            else:
                bucket.append((skey, callback, args))

    # -- queue inspection --------------------------------------------------

    def peek_time(self) -> Optional[int]:
        """Return the timestamp of the next pending event, or ``None``."""
        if len(self._cur) > self._pos:
            return self._now
        times = self._times
        return times[0] if times else None

    def pending_now(self) -> bool:
        """Whether another event is pending at the current cycle.

        Always equal to ``peek_time() == now``.  Inside a callback only
        the running bucket can hold one; between runs a bucket at the
        parked clock can also wait on the heap.
        """
        if len(self._cur) > self._pos:
            return True
        times = self._times
        return bool(times) and times[0] == self._now

    def pending_events(self) -> int:
        """Number of events currently queued."""
        return sum(map(len, self._buckets.values())) - self._pos

    def peek_key(self) -> Optional[Tuple[int, int]]:
        """The ``(time, skey)`` key of the next pending event, or ``None``."""
        cur = self._cur
        pos = self._pos
        if len(cur) > pos:
            return (self._now, cur[pos][0])
        times = self._times
        if not times:
            return None
        time = times[0]
        return (time, self._buckets[time][0][0])

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` if none pending.

        Like :meth:`run`, refuses re-entry and holds ``_running`` for the
        dispatch, so the callback may neither :meth:`rewind` nor
        :meth:`inject` below its own schedule key.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant step())")
        self._running = True
        try:
            return self._step()
        finally:
            self._running = False

    def _step(self) -> bool:
        cur = self._cur
        pos = self._pos
        if pos >= len(cur):
            # drops a bucket left exhausted by a callback that raised
            self._requeue()
            times = self._times
            if not times:
                return False
            self._now = time = heappop(times)
            self._cur = cur = self._buckets[time]
            pos = 0
        skey, callback, args = cur[pos]
        pos += 1
        self._pos = pos
        self.cur_skey = skey
        if self.profiler is None:
            callback(*args)
        else:
            self.profiler.dispatch(callback, args)
        if pos == len(cur):
            self._requeue()
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` cycles pass, or
        ``max_events`` events execute.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        executed = 0
        try:
            if max_events is None and self.profiler is None:
                executed = self._run_fast(until)
            else:
                while max_events is None or executed < max_events:
                    if until is not None:
                        nxt = self.peek_time()
                        if nxt is None or nxt > until:
                            break
                    if not self._step():
                        break
                    executed += 1
            # Both time-bounded exits — next event beyond ``until`` and the
            # queue draining early — leave the clock at ``until``, so
            # elapsed-cycle denominators (e.g. link utilization) agree with
            # the caller's notion of how long the run covered.  A
            # ``max_events`` break with work still due before ``until``
            # keeps the clock at the last executed event.
            if until is not None and until > self._now:
                nxt = self.peek_time()
                if nxt is None or nxt > until:
                    self._now = until
        finally:
            self._running = False
        return executed

    def _run_fast(self, until: Optional[int]) -> int:
        """Hot dispatch loop: no profiler, no per-event bound checks.

        The per-event bookkeeping matches :meth:`step` (``_pos`` and
        ``cur_skey`` advance per event — metrics gauges read
        ``events_processed`` mid-run).  A list iterator re-checks the
        bucket's length on every step, so events scheduled into the
        running cycle are dispatched in the same pass.  A profiler
        assigned *during* a run takes effect at the next run().
        """
        self._requeue()
        buckets = self._buckets
        times = self._times
        start = self._done
        while times:
            now = times[0]
            if until is not None and now > until:
                break
            heappop(times)
            self._now = now
            self._cur = bucket = buckets[now]
            for pos, (skey, callback, args) in enumerate(bucket, 1):
                self._pos = pos
                self.cur_skey = skey
                callback(*args)
            del buckets[now]
            self._done += pos
            self._pos = 0
        self._cur = ()
        return self._done - start
