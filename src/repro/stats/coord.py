"""Coordination-overhead counters for sharded runs.

Sharded execution pays three taxes the single-engine run does not:
verb round-trips over the worker pipes, pickle bytes for the command
and mailbox traffic crossing those pipes, and coordinator idle time
spent waiting for the slowest shard of each window.  :class:`CoordStats`
accumulates all three so the ``sharded_speedup`` benchmark can record a
per-window breakdown and CI can gate on boundary-path regressions
(see ``repro.bench.harness.compare_reports``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CoordStats:
    """Per-run coordination-overhead breakdown for a sharded run.

    ``pickle_bytes_out``/``pickle_bytes_in`` count the exact serialized
    command/reply payloads crossing worker pipes.  Only the
    process-parallel handle (``RemoteShard``) counts them: in-process
    shards pickle their mail batches too, but pass commands and replies
    without a pipe and count no bytes.  ``idle_wait_seconds`` is wall time the coordinator spent
    blocked on worker replies — parallelism payoff hides shard compute
    inside it, so on a single CPU it approximates the whole simulation.
    """

    windows: int = 0
    launches: int = 0
    verb_round_trips: int = 0
    pickle_bytes_out: int = 0
    pickle_bytes_in: int = 0
    mail_items: int = 0
    idle_wait_seconds: float = 0.0

    @property
    def pickle_bytes(self) -> int:
        return self.pickle_bytes_out + self.pickle_bytes_in

    @property
    def pickle_bytes_per_window(self) -> float:
        if self.windows == 0:
            return 0.0
        return self.pickle_bytes / self.windows

    def to_dict(self) -> dict:
        """Flat mapping for bench-report ``extra`` fields."""
        return {
            "windows": self.windows,
            "launches": self.launches,
            "verb_round_trips": self.verb_round_trips,
            "pickle_bytes_out": self.pickle_bytes_out,
            "pickle_bytes_in": self.pickle_bytes_in,
            "pickle_bytes_per_window": round(self.pickle_bytes_per_window, 1),
            "mail_items": self.mail_items,
            "idle_wait_seconds": round(self.idle_wait_seconds, 4),
        }
