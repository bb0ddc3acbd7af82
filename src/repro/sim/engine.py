"""Event engine: a deterministic calendar-queue discrete-event scheduler.

All simulated time is expressed in integer cycles of the 1 GHz core clock
(per the paper's Table 2 every structure is clocked at 1 GHz, so a single
clock domain suffices).  Events scheduled for the same cycle fire in the
order they were scheduled (FIFO tie-break), which keeps runs
reproducible.

Ordering model
--------------

Every pending event carries the key ``(time, skey, seq)``:

* ``time`` — the cycle the event fires at;
* ``skey`` — the cycle the event was *scheduled* at (its schedule key);
* ``seq``  — a monotonically increasing sequence number.

For purely local scheduling this order is provably identical to the
classic ``(time, seq)`` FIFO tie-break: the engine clock never moves
backwards while events execute, so ``skey`` is non-decreasing in ``seq``
and sorting by ``(skey, seq)`` degenerates to sorting by ``seq``.  The
point of the redundant ``skey`` is cluster-sharded execution
(:mod:`repro.shard`): an event injected from *another* shard's engine via
:meth:`inject` is ordered by when its cause happened (the remote send
cycle), not by when the mailbox happened to deliver it, so the dispatch
order is a pure function of the simulated causality and independent of
how shards interleave in wall-clock time.

Queue structure
---------------

The pending set is split into a *calendar* of per-cycle buckets covering
the near future (``HORIZON`` cycles from the current base) and a heap for
far-future events.  Local scheduling appends to a bucket in already-
sorted ``(skey, seq)`` order (``skey = now`` is non-decreasing), so the
common case is an O(1) list append and an O(1) pop — no heap siftup on
the hot path.  Heap entries migrate into the calendar as the clock
advances; cross-shard injections use ``bisect.insort`` since their
``skey`` lies in the past.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Engine:
    """A discrete-event scheduler with integer-cycle timestamps."""

    #: cycles of near future covered by the calendar ring; events beyond
    #: it overflow to a heap and migrate in as the clock advances
    HORIZON = 256

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        #: schedule key of the event currently being dispatched; sharded
        #: quiesce analysis reads it to order drains against poll events
        self.cur_skey = 0
        #: optional :class:`repro.obs.profiler.EngineProfiler`; when set,
        #: every dispatched callback is timed and attributed per class
        self.profiler = None
        # calendar ring: bucket ``t % HORIZON`` holds events at cycle t for
        # t in [base, base + HORIZON); each bucket is a list of
        # (skey, seq, callback, args) kept sorted by (skey, seq)
        horizon = self.HORIZON
        if horizon & (horizon - 1):
            raise ValueError("HORIZON must be a power of two")
        # instance-cached ring constants: ``schedule`` is the hottest call
        # in the simulator, and instance attributes probe one dict fewer
        # than class attributes (and ``& mask`` beats ``% horizon``)
        self._horizon = horizon
        self._mask = horizon - 1
        self._base = 0
        self._ring: List[list] = [[] for _ in range(horizon)]
        self._ring_size = 0
        #: consumed prefix of the bucket currently being dispatched (the
        #: bucket for ``_now``); entries before it are already executed
        self._cur_pos = 0
        #: lower bound on the earliest occupied ring cycle after ``_now``
        #: (scan accelerator; may be stale-low, never stale-high)
        self._next_hint: Optional[int] = None
        # far-future overflow: heap of (time, skey, seq, callback, args)
        self._far: List[Tuple[int, int, int, Callable[..., None], tuple]] = []

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs the callback later
        in the current cycle (after all previously scheduled same-cycle
        events).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # hottest call in the simulator: inline the push.  Timestamps must
        # stay integers (cycle arithmetic all over the model is exact
        # integer math), so non-int delays are coerced on the slow branch.
        if type(delay) is not int:
            delay = int(delay)
        now = self._now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        if time - self._base < self._horizon:
            # skey == now is non-decreasing across appends, so the bucket
            # stays sorted by construction
            self._ring[time & self._mask].append((now, seq, callback, args))
            self._ring_size += 1
            hint = self._next_hint
            if hint is None or time < hint:
                self._next_hint = time
        else:
            heapq.heappush(self._far, (time, now, seq, callback, args))

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``time``."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current cycle is {now}"
            )
        if type(time) is not int:
            time = int(time)
        seq = self._seq
        self._seq = seq + 1
        if time - self._base < self._horizon:
            self._ring[time & self._mask].append((now, seq, callback, args))
            self._ring_size += 1
            hint = self._next_hint
            if hint is None or time < hint:
                self._next_hint = time
        else:
            heapq.heappush(self._far, (time, now, seq, callback, args))

    def inject(self, time: int, skey: int, callback: Callable[..., None], *args: Any) -> None:
        """Insert an event whose *cause* happened at cycle ``skey``.

        Cross-shard mailbox delivery: the event is ordered as if it had
        been scheduled at ``skey`` (the remote send cycle), even though it
        is being inserted later in wall-clock terms.  ``time`` must still
        be in this engine's future — conservative windows guarantee that —
        except between runs, where insertion at the current cycle is
        allowed (kernel replay after :meth:`rewind`), and during a run,
        where it is allowed when ``skey`` is not below the running event's
        schedule key: the new entry's fresh ``seq`` then sorts it after the
        running event, into the part of the cycle not yet dispatched.
        """
        now = self._now
        if time < now or (time == now and self._running and skey < self.cur_skey):
            raise SimulationError(
                f"cannot inject at cycle {time} (schedule key {skey}): current "
                f"cycle is {now}, running schedule key {self.cur_skey}"
            )
        if skey > time:
            raise SimulationError(f"inject skey {skey} is after its time {time}")
        seq = self._seq
        self._seq = seq + 1
        if time - self._base < self._horizon:
            # skey lies in the past relative to resident entries, so a
            # plain append would break bucket order; insort costs one
            # binary search per inter-cluster flit delivery
            insort(self._ring[time & self._mask], (skey, seq, callback, args))
            self._ring_size += 1
            hint = self._next_hint
            if hint is None or time < hint:
                self._next_hint = time
        else:
            heapq.heappush(self._far, (time, skey, seq, callback, args))

    def rewind(self, time: int) -> None:
        """Move the clock to ``time``, which may lie in the executed past.

        Used by sharded kernel-boundary replay: the coordinator proves the
        next kernel launches at cycle ``q`` possibly a few cycles behind
        the shard's frontier, and that the events already executed beyond
        ``q`` commute with the launch chain (they touch disjoint state).
        Pending events are preserved; subsequent scheduling happens
        relative to the rewound clock.
        """
        if self._running:
            raise SimulationError("cannot rewind while running")
        if time < 0:
            raise SimulationError(f"cannot rewind to negative cycle {time}")
        # dump the ring into the heap and re-base the calendar at ``time``
        horizon = self.HORIZON
        base = self._base
        if self._ring_size:
            for offset in range(horizon):
                bucket = self._ring[(base + offset) % horizon]
                if bucket:
                    t = base + offset
                    # the current cycle's bucket may hold an already-
                    # dispatched prefix (recycled lazily); don't resurrect it
                    start = self._cur_pos if t == self._now else 0
                    for skey, seq, callback, args in bucket[start:]:
                        heapq.heappush(self._far, (t, skey, seq, callback, args))
                    bucket.clear()
        self._ring_size = 0
        self._cur_pos = 0
        self._next_hint = None
        self._now = time
        self._base = time
        self._refill()

    # -- snapshot protocol -------------------------------------------------

    def __getstate__(self) -> dict:
        """Normalized pickle state: the undispatched pending set only.

        The calendar ring recycles the current cycle's bucket *lazily*
        (``_pop_current`` clears it on the call after exhaustion), so at
        any instant the bucket for ``_now`` may hold an already-executed
        prefix below ``_cur_pos``.  Serializing that prefix would both
        resurrect dispatched events on restore and drag semantically dead
        objects (e.g. completed requests' callbacks/closures) into the
        snapshot, so it is dropped here — the same hazard
        :meth:`rewind` guards against.  What remains is the exact pending
        set as ``(time, skey, seq, callback, args)`` with absolute times,
        independent of ring phase, plus the scheduling cursors.
        """
        pending: List[Tuple[int, int, int, Callable[..., None], tuple]] = []
        horizon = self.HORIZON
        base = self._base
        if self._ring_size:
            for offset in range(horizon):
                bucket = self._ring[(base + offset) % horizon]
                if bucket:
                    t = base + offset
                    # skip the dispatched prefix of the current bucket
                    start = self._cur_pos if t == self._now else 0
                    for skey, seq, callback, args in bucket[start:]:
                        pending.append((t, skey, seq, callback, args))
        pending.extend(self._far)
        pending.sort(key=lambda entry: entry[:3])
        return {
            "now": self._now,
            "seq": self._seq,
            "events_processed": self._events_processed,
            "cur_skey": self.cur_skey,
            "profiler": self.profiler,
            "pending": pending,
        }

    def __setstate__(self, state: dict) -> None:
        """Rebuild the calendar from normalized state, re-based at ``now``.

        The pending list arrives sorted by ``(time, skey, seq)``, so
        per-bucket appends preserve the sorted-bucket invariant and
        ordered heap pushes produce a valid heap.  ``_running`` is always
        False in the restored engine: snapshots are taken mid-dispatch,
        and the resumed run re-enters :meth:`run` from the top.
        """
        self.__init__()
        self._now = state["now"]
        self._base = state["now"]
        self._seq = state["seq"]
        self._events_processed = state["events_processed"]
        self.cur_skey = state["cur_skey"]
        self.profiler = state["profiler"]
        horizon = self.HORIZON
        base = self._base
        for time, skey, seq, callback, args in state["pending"]:
            if time - base < horizon:
                self._ring[time % horizon].append((skey, seq, callback, args))
                self._ring_size += 1
                hint = self._next_hint
                if hint is None or time < hint:
                    self._next_hint = time
            else:
                heapq.heappush(self._far, (time, skey, seq, callback, args))

    # -- queue inspection --------------------------------------------------

    def _refill(self) -> None:
        """Migrate far-future heap entries that now fall inside the ring."""
        far = self._far
        limit = self._base + self.HORIZON
        ring = self._ring
        horizon = self.HORIZON
        added = 0
        while far and far[0][0] < limit:
            time, skey, seq, callback, args = heapq.heappop(far)
            # heap pops arrive in (time, skey, seq) order, and any entry
            # already resident in the bucket was scheduled closer to its
            # fire time (skey > time - HORIZON >= this skey), so insort
            # places migrated entries before residents, keeping order
            insort(ring[time % horizon], (skey, seq, callback, args))
            added += 1
            hint = self._next_hint
            if hint is None or time < hint:
                self._next_hint = time
        self._ring_size += added

    def _next_ring_time(self) -> Optional[int]:
        """Earliest occupied ring cycle after the current bucket."""
        if not self._ring_size:
            return None
        ring = self._ring
        horizon = self.HORIZON
        base = self._base
        start = self._next_hint
        if start is None or start <= self._now:
            start = self._now + 1
        # the current bucket's remainder counts as pending too
        cur = ring[self._now % horizon]
        if len(cur) > self._cur_pos and self._now >= base:
            return self._now
        for t in range(start, base + horizon):
            if ring[t % horizon]:
                self._next_hint = t
                return t
        self._next_hint = None
        return None

    def peek_time(self) -> Optional[int]:
        """Return the timestamp of the next pending event, or ``None``."""
        # fast path: more events pending in the current cycle's bucket
        cur = self._ring[self._now % self.HORIZON]
        if len(cur) > self._cur_pos:
            return self._now
        t = self._next_ring_time()
        if t is not None:
            return t
        if self._far:
            return self._far[0][0]
        return None

    def pending_now(self) -> bool:
        """Whether another event is pending at the current cycle.

        Always equal to ``peek_time() == now``, without walking forward
        through empty buckets when the current one is exhausted.  Only the
        current bucket and the far heap can hold an event at ``now``: the
        heap does when a time-bounded :meth:`run` parked the clock a full
        horizon past the calendar base and a zero-delay event went there.
        """
        now = self._now
        if len(self._ring[now & self._mask]) > self._cur_pos:
            return True
        far = self._far
        return bool(far) and far[0][0] == now

    def pending_events(self) -> int:
        """Number of events currently queued."""
        return self._ring_size - self._cur_pos + len(self._far)

    def peek_key(self) -> Optional[Tuple[int, int]]:
        """The ``(time, skey)`` key of the next pending event, or ``None``."""
        cur = self._ring[self._now % self.HORIZON]
        if len(cur) > self._cur_pos:
            return (self._now, cur[self._cur_pos][0])
        t = self._next_ring_time()
        if t is not None:
            bucket = self._ring[t % self.HORIZON]
            return (t, bucket[0][0])
        if self._far:
            entry = self._far[0]
            return (entry[0], entry[1])
        return None

    # -- execution ---------------------------------------------------------

    def _advance_base(self, time: int) -> None:
        """Slide the calendar window so ``time`` is its base.

        Only called when every bucket before ``time`` is empty (``time``
        is the next pending event), so no entries need to move except
        far-heap migrations into the newly covered range.
        """
        if time > self._base:
            self._base = time
            if self._far:
                self._refill()

    def _pop_current(self):
        """Pop the next entry at ``_now`` from the current bucket, or None."""
        bucket = self._ring[self._now % self.HORIZON]
        pos = self._cur_pos
        if pos < len(bucket):
            entry = bucket[pos]
            self._cur_pos = pos + 1
            return entry
        if pos:
            bucket.clear()
            self._ring_size -= pos
            self._cur_pos = 0
        return None

    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` if none pending."""
        entry = self._pop_current()
        if entry is None:
            t = self._next_ring_time()
            if t is None:
                if not self._far:
                    return False
                t = self._far[0][0]
            self._now = t
            self._advance_base(t)
            entry = self._pop_current()
            if entry is None:  # pragma: no cover - defensive
                return False
        skey, _seq, callback, args = entry
        self.cur_skey = skey
        self._events_processed += 1
        if self.profiler is None:
            callback(*args)
        else:
            self.profiler.dispatch(callback, args)
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
                while True:
                    if until is not None:
                        nxt = self.peek_time()
                        if nxt is None or nxt > until:
                            break
                    if max_events is not None and executed >= max_events:
                        break
                    if not self.step():
                        break
                    executed += 1
                # the step loop can exit with the current cycle's bucket
                # exhausted but not yet recycled (_pop_current clears it
                # on its *next* call); recycle it here so the clock can
                # move without _cur_pos referring to a stale bucket
                bucket = self._ring[self._now % self.HORIZON]
                pos = self._cur_pos
                if pos and pos >= len(bucket):
                    bucket.clear()
                    self._ring_size -= pos
                    self._cur_pos = 0
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

        The per-event bookkeeping matches :meth:`step` exactly
        (``events_processed`` must advance per event — metrics gauges
        read it mid-run).  A profiler assigned *during* a run takes
        effect at the next run().
        """
        horizon = self.HORIZON
        ring = self._ring
        start_count = self._events_processed
        while True:
            now = self._now
            bucket = ring[now % horizon]
            pos = self._cur_pos
            n = len(bucket)
            if pos < n:
                # dispatch the current cycle's bucket; same-cycle appends
                # grow the list and are picked up by the length re-check
                while pos < n:
                    skey, _seq, callback, args = bucket[pos]
                    pos += 1
                    self._cur_pos = pos
                    self.cur_skey = skey
                    self._events_processed += 1
                    callback(*args)
                    n = len(bucket)
                continue
            if pos:
                bucket.clear()
                self._ring_size -= pos
                self._cur_pos = 0
            t = self._next_ring_time()
            if t is None:
                if not self._far:
                    break
                t = self._far[0][0]
            if until is not None and t > until:
                break
            self._now = t
            self._advance_base(t)
        return self._events_processed - start_count

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain.  Convenience alias of :meth:`run`."""
        return self.run(until=None, max_events=max_events)
