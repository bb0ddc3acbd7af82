"""The campaign server's loop-fed worker pool (:mod:`repro.campaign.pool`)."""

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.campaign.pool import UNSTARTED_CALLS, LoopPool


def _square(x):
    return x * x


def _fail(message):
    raise ValueError(message)


def _nap(seconds):
    time.sleep(seconds)
    return os.getpid()


def _run(jobs, body):
    """Run ``body(pool, loop)`` on a fresh loop with a ``jobs``-worker pool,
    shutting the pool down afterwards."""

    async def scenario():
        loop = asyncio.get_running_loop()
        pool = LoopPool(jobs, loop)
        try:
            return await body(pool, loop)
        finally:
            pool.shutdown(wait=True)

    return asyncio.run(scenario())


def test_calls_run_in_workers_beyond_the_pipe_window():
    async def body(pool, loop):
        n = 2 * (2 + UNSTARTED_CALLS) + 3
        squares = await asyncio.gather(
            *(loop.run_in_executor(pool, _square, i) for i in range(n))
        )
        pids = await asyncio.gather(
            *(loop.run_in_executor(pool, _nap, 0.01) for _ in range(4))
        )
        return squares, pids

    squares, pids = _run(2, body)
    assert squares == [i * i for i in range(len(squares))]
    assert os.getpid() not in pids
    assert not multiprocessing.active_children()


def test_a_failing_call_fails_its_future_only():
    async def body(pool, loop):
        with pytest.raises(ValueError, match="boom"):
            await loop.run_in_executor(pool, _fail, "boom")
        return await loop.run_in_executor(pool, _square, 7)

    assert _run(1, body) == 49


def test_a_worker_killed_mid_call_breaks_the_pool():
    async def body(pool, loop):
        running = loop.run_in_executor(pool, _nap, 30.0)
        queued = loop.run_in_executor(pool, _square, 3)
        await asyncio.sleep(0.2)
        (worker,) = pool._workers
        os.kill(worker.pid, signal.SIGKILL)
        for future in (running, queued):
            with pytest.raises(BrokenProcessPool):
                await asyncio.wait_for(future, timeout=10.0)
        with pytest.raises(BrokenProcessPool):
            pool.submit(_square, 1)

    _run(1, body)
    assert not multiprocessing.active_children()


def _exited(pid):
    """Whether ``pid`` is gone (or a zombie nobody reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False


_ORPHANING_SERVER = """
import asyncio
from repro.campaign.pool import LoopPool


async def main():
    pool = LoopPool(1, asyncio.get_running_loop())
    print(pool._workers[0].pid, flush=True)
    await asyncio.sleep(60)


asyncio.run(main())
"""


def test_workers_exit_when_their_server_dies():
    src = str(Path(repro.__file__).resolve().parent.parent)
    server = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_SERVER],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
    )
    worker_pid = int(server.stdout.readline())
    server.kill()
    server.wait()
    server.stdout.close()
    deadline = time.monotonic() + 10.0
    while not _exited(worker_pid):
        assert time.monotonic() < deadline, "worker outlived its server"
        time.sleep(0.02)
