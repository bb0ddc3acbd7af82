"""Engine profiling: events dispatched and wall time per callback class.

The event engine dispatches millions of bound-method callbacks per run;
knowing *which* component classes burn the wall clock is the first step
of any simulator optimization.  The profiler keys every dispatched event
by ``ClassName.method`` (falling back to ``__qualname__`` for free
functions) and accumulates a count and total wall seconds per key.

Attach via ``engine.profiler = EngineProfiler()``; detached (``None``,
the default) the engine pays a single ``is None`` branch per event.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple


def callback_key(callback: Callable) -> str:
    """Stable per-class key for a dispatched callback."""
    owner = getattr(callback, "__self__", None)
    name = getattr(callback, "__name__", None)
    if owner is not None and name is not None:
        return f"{type(owner).__name__}.{name}"
    return getattr(callback, "__qualname__", repr(callback))


class DispatchOrder:
    """Counts dispatched events per callback key and hashes their order.

    :meth:`attach` makes it an engine's profiler; the engine sets its
    clock and ``cur_skey`` before it hands each event to :meth:`dispatch`,
    so :meth:`hexdigest` is a sha256 over ``(cycle, schedule key,
    callback key)`` of every event in dispatch order, across every engine
    attached so far.  Nothing is timed: the counts and the digest are
    deterministic, so they gate an engine change exactly.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.engine = None
        self._order = hashlib.sha256()

    def attach(self, engine) -> None:
        self.engine = engine
        engine.profiler = self

    def dispatch(self, callback: Callable, args: tuple) -> None:
        key = callback_key(callback)
        self.counts[key] += 1
        engine = self.engine
        self._order.update(f"{engine.now} {engine.cur_skey} {key}\n".encode())
        callback(*args)

    def hexdigest(self) -> str:
        return self._order.hexdigest()


class EngineProfiler:
    """Accumulates per-callback-class dispatch counts and wall time."""

    def __init__(self) -> None:
        #: key -> [dispatch count, wall seconds]
        self.by_key: Dict[str, List[float]] = {}
        self.events = 0
        self.wall_seconds = 0.0

    def dispatch(self, callback: Callable, args: tuple) -> None:
        """Run ``callback(*args)``, attributing its wall time."""
        key = callback_key(callback)
        start = time.perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = time.perf_counter() - start
            entry = self.by_key.get(key)
            if entry is None:
                self.by_key[key] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            self.events += 1
            self.wall_seconds += elapsed

    # -- reporting ---------------------------------------------------------

    def hotspots(self) -> List[Tuple[str, int, float]]:
        """(key, count, seconds) rows, most wall time first."""
        rows = [(key, int(count), secs) for key, (count, secs) in self.by_key.items()]
        rows.sort(key=lambda row: -row[2])
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "by_callback": [
                {"callback": key, "count": count, "seconds": secs}
                for key, count, secs in self.hotspots()
            ],
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
