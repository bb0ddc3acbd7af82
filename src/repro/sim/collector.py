"""The cyclic garbage collector's policy around a simulation run.

A simulation run makes no cyclic garbage: every object a run drops is
freed by reference counting, and the only cycles are the node graph
itself (components, the engine and the bound callbacks between them),
which stays reachable until the run's caller lets go of the node.
CPython's generational collector nonetheless wakes every few hundred
allocations and traverses the young objects, and a run allocates
millions, so it spends a sizeable share of a point's wall time proving
there is nothing to free.

:func:`collector_paused` turns automatic collection off for the
duration of a run and, on exit, runs one young-generation collection.
Nothing was collected during the run (unless a point on another thread
ended meanwhile), so nothing the run allocated was promoted to an older
generation: once the caller's frame that held the node is gone, that
single generation-0 pass frees the whole graph at the point boundary
rather than leaving it for a later full collection.

The collector's enabled state is process-wide, but several threads may
run points at once (the campaign server's thread executor), so entries
are counted under a lock: the first entry saves the state, the last
exit restores it, and a nested or overlapping entry changes nothing.

There is deliberately no ``gc.freeze()``: a long-lived process (the
campaign server, a shard worker) would leak any frozen object that
later became part of cyclic garbage.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
#: entries currently inside :func:`collector_paused`, across threads
_depth = 0
#: whether automatic collection was on before the outermost entry
_was_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with automatic collection off; collect generation 0
    on exit, when the body's own frames are gone.

    Wrap a call, not the statements that hold the node: an object still
    referenced from the caller's frame survives the exit collection.
    """
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
        gc.collect(0)
