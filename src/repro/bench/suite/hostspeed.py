"""Host speed: a fixed probe timed between the suite's measured operations.

On a shared host the simulator's speed drifts with other tenants' load,
by half or more for minutes at a time, and process CPU time drifts with
wall time (the slowdown is in execution, not in waiting for a CPU), so
neither separates a change to the program from a change of the host.
The suite therefore times a fixed pure-Python kernel of its own before
and after every measured operation.  The kernel slows down with the host
much as the simulator does, so each timed unit (a pass of points, a
served round) is scaled by how much slower than ``NOMINAL_S`` the probes
around it ran: a measured host second becomes a *reference second*, a
second on a host where the probe takes ``NOMINAL_S``.  The probe is the
suite's code, not the program's: a change to the program moves reference
seconds exactly as it moves host seconds.

A single-process workload is probed where it runs, on whatever CPU the
scheduler has it on.  A workload whose processes spread over the host's
CPUs (shard workers; the campaign client, server and pool worker) is
probed on each CPU in turn, one per probe, so the mean over a unit's
probes covers them all: the CPUs of a shared host slow down
independently.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from typing import Sequence

#: iterations of the probe's loop
PROBE_ITERATIONS = 60_000

#: the probe's duration at the reference speed; about its unloaded
#: duration on the 2-vCPU host SUITE.md's numbers come from
NOMINAL_S = 0.008


def _kernel() -> float:
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
        table[i % 997] = total
    return time.perf_counter() - start


#: probes taken on a chosen CPU so far, which picks the next CPU
_cpu_probes = itertools.count()


def probe(every_cpu: bool = False) -> float:
    """Host seconds the fixed kernel takes now: where this process runs,
    or, with ``every_cpu``, on the next of the CPUs it may run on."""
    if not every_cpu:
        return _kernel()
    cpus = os.sched_getaffinity(0)
    ordered = sorted(cpus)
    os.sched_setaffinity(0, {ordered[next(_cpu_probes) % len(ordered)]})
    try:
        return _kernel()
    finally:
        os.sched_setaffinity(0, cpus)


def slowdown(probes: Sequence[float]) -> float:
    """How much slower than the reference the host ran while ``probes``
    were taken; host seconds divided by it are reference seconds."""
    return statistics.mean(probes) / NOMINAL_S


#: a run stops at this many times its budget in host seconds, so a very
#: slow host shortens the run rather than stretching it
HOST_CAP = 1.5


class Budget:
    """A run's timed work: ``seconds`` reference seconds, or ``HOST_CAP``
    times that in host seconds, whichever comes first.  Budgeting in
    reference seconds keeps the work per run, and so a long-lived
    server's memory, the same under light and heavy host load."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.reference_s = 0.0
        self.host_s = 0.0

    def spend(self, host_s: float, slowdown: float) -> None:
        self.host_s += host_s
        self.reference_s += host_s / slowdown

    @property
    def spent(self) -> bool:
        return (
            self.reference_s >= self.seconds
            or self.host_s >= HOST_CAP * self.seconds
        )
