"""The campaign server's worker processes, fed by its event loop.

:class:`concurrent.futures.ProcessPoolExecutor` moves every call through
two helper threads of the calling process: a feeder thread pickles the
call into the workers' queue, and a manager thread waits on the workers
and unpickles each result.  Each call wakes both of them; at the serving
rate of a few hundred points per second those wake-ups cost the server
about as much as its own work per point.

:class:`LoopPool` keeps the executor's shape — ``jobs`` worker processes
pulling calls from one shared pipe, so an idle worker takes the next
call, and a :class:`~concurrent.futures.Future` per call — but the event
loop writes each call and reads each result itself (``loop.add_reader``),
with no thread in between.  The loop never blocks on a full call pipe:
calls beyond one per worker plus ``UNSTARTED_CALLS`` wait in the pool
and go out as results come back, so the pipe never holds more than
``UNSTARTED_CALLS`` calls no worker has taken.  ``submit`` must be
called on the loop's thread.  A worker that dies unasked breaks the
pool as it breaks a ``ProcessPoolExecutor``: every outstanding call fails with
:class:`~concurrent.futures.process.BrokenProcessPool`, and so does
every later ``submit``.  Workers ignore SIGINT (the server stops them),
and a worker whose server is gone reads the end of its call pipe and
exits.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import multiprocessing
import multiprocessing.connection
import signal
from collections import deque
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, Tuple

#: calls written to the pipe beyond one per worker; more wait in the pool
#: (a point's call pickles to a few KB, far below a pipe's buffer)
UNSTARTED_CALLS = 8


def _work(calls, calls_lock, results, results_lock, server_ends) -> None:
    """A worker: run each call read from ``calls`` until the stop mark
    (``None``) or the end of the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # a forked worker inherits the server's ends of both pipes: drop
    # them, so the call pipe ends when the server does
    for end in server_ends:
        end.close()
    while True:
        try:
            with calls_lock:
                call = calls.recv()
        except EOFError:
            return
        if call is None:
            return
        seq, fn, args = call
        try:
            outcome = (seq, True, fn(*args))
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            outcome = (seq, False, exc)
        with results_lock:
            try:
                results.send(outcome)
            except BrokenPipeError:
                return
            except Exception as exc:  # an unpicklable result or error
                results.send((seq, False, RuntimeError(f"{type(exc).__name__}: {exc}")))


class LoopPool(Executor):
    """``jobs`` worker processes whose calls and results ``loop`` moves;
    see the module docstring."""

    def __init__(self, jobs: int, loop: asyncio.AbstractEventLoop) -> None:
        context = multiprocessing.get_context()
        self._loop = loop
        calls_reader, self._calls = context.Pipe(duplex=False)
        self._results, results_writer = context.Pipe(duplex=False)
        calls_lock, results_lock = context.Lock(), context.Lock()
        self._workers = [
            context.Process(
                target=_work,
                args=(
                    calls_reader,
                    calls_lock,
                    results_writer,
                    results_lock,
                    (self._calls, self._results),
                ),
            )
            for _ in range(jobs)
        ]
        for worker in self._workers:
            worker.start()
        # only the workers read calls and write results
        calls_reader.close()
        results_writer.close()
        self._pending: Dict[int, Future] = {}
        #: calls not written yet, and how many written ones are unanswered
        self._backlog: Deque[Tuple[int, object, tuple]] = deque()
        self._written = 0
        self._window = jobs + UNSTARTED_CALLS
        self._seq = itertools.count()
        self._broken = False
        self._stopping = False
        loop.add_reader(self._results.fileno(), self._on_result)
        for worker in self._workers:
            loop.add_reader(worker.sentinel, self._on_exit)
        # a server that exits without stopping its pool still lets the
        # workers go: they read the end of the call pipe
        atexit.register(self._calls.close)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if kwargs:
            raise TypeError("LoopPool calls take positional arguments only")
        if self._broken:
            raise BrokenProcessPool("a worker process died; the pool is unusable")
        if self._stopping:
            raise RuntimeError("cannot submit after shutdown")
        seq = next(self._seq)
        future = self._pending[seq] = Future()
        future.set_running_or_notify_cancel()
        self._backlog.append((seq, fn, args))
        self._write()
        return future

    def _write(self) -> None:
        """Write waiting calls while the pipe has room for unstarted ones."""
        while self._backlog and self._written < self._window:
            self._calls.send(self._backlog.popleft())
            self._written += 1

    def _on_result(self) -> None:
        """A result is readable: complete its call's future."""
        try:
            seq, ok, value = self._results.recv()
        except (EOFError, OSError):
            self._loop.remove_reader(self._results.fileno())
            self._break()
            return
        future = self._pending.pop(seq, None)
        if future is None:
            return  # its call was already failed by a breakage
        self._written -= 1
        self._write()
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _on_exit(self) -> None:
        """A worker exited unasked: the pool is broken."""
        for worker in self._workers:
            self._loop.remove_reader(worker.sentinel)
        self._break()

    def _break(self) -> None:
        if self._broken:
            return
        self._broken = True
        self._backlog.clear()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            future.set_exception(
                BrokenProcessPool("a worker process died while running its call")
            )

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Let every submitted call finish, then stop the workers; with
        ``wait``, join them.  Blocks the loop: call it once nothing else
        is left to serve."""
        if self._stopping:
            return
        self._stopping = True
        sentinels = [worker.sentinel for worker in self._workers]
        for sentinel in sentinels:
            self._loop.remove_reader(sentinel)
        self._loop.remove_reader(self._results.fileno())
        while self._pending and not self._broken:
            ready = multiprocessing.connection.wait([self._results, *sentinels])
            if self._results in ready:
                self._on_result()
            else:
                self._break()
        try:
            for _ in self._workers:
                self._calls.send(None)
        except OSError:
            pass  # every worker is gone already
        if wait:
            for worker in self._workers:
                worker.join()
        self._calls.close()
        self._results.close()
        atexit.unregister(self._calls.close)
