"""Metrics time series: periodic snapshots of named counters and gauges.

End-of-run scalars hide *when* a link saturated or a Cluster Queue
filled; this registry samples a set of named sources every N cycles so
utilization-over-time, occupancy-over-time and queue-depth-over-time can
be plotted or diffed between configurations.

Sources are zero-argument callables registered under a dotted name
(``inter.wire_bytes``, ``cq.ctl0->1.occupancy``, ...).  Cumulative
sources (byte/flit counters) must agree with the end-of-run aggregate:
the final snapshot is taken at the finish cycle, so the last sample of
``inter.wire_bytes`` equals the summed ``LinkStats`` totals — a
cross-check the test suite enforces.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

#: bump when the sample format changes
METRICS_SCHEMA_VERSION = 1


class MetricsRegistry:
    """Named metric sources plus the samples collected from them."""

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ValueError("metrics interval must be positive")
        self.interval = int(interval)
        #: name -> source, in registration order; ``None`` marks a name
        #: whose source was dropped by pickling (see ``__getstate__``)
        self._sources: Dict[str, Optional[Callable[[], float]]] = {}
        self.samples: List[Dict[str, float]] = []

    def register(self, name: str, source: Callable[[], float]) -> None:
        """Register ``source`` under ``name``; names must be unique.

        A name restored without its source may be registered again: it
        keeps its place in :meth:`names`.
        """
        if name == "cycle":
            raise ValueError("'cycle' is reserved for the sample timestamp")
        if self._sources.get(name) is not None:
            raise ValueError(f"metric {name!r} already registered")
        self._sources[name] = source

    def names(self) -> List[str]:
        return list(self._sources)

    # -- snapshot protocol -------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the names and the series, not the sources.

        Gauge sources are closures over live simulator objects and cannot
        (and should not) be serialized; whoever restores a registry that
        keeps sampling must re-register its sources against the restored
        system — the system classes do this via their
        ``_register_metrics`` wiring.
        """
        return {"interval": self.interval, "names": self.names(), "samples": self.samples}

    def __setstate__(self, state: dict) -> None:
        self.interval = state["interval"]
        self.samples = state["samples"]
        self._sources = dict.fromkeys(state["names"])

    # -- sampling ----------------------------------------------------------

    def sample(self, cycle: int) -> Dict[str, float]:
        """Snapshot every source at ``cycle``.

        Re-sampling the same cycle (the final end-of-run snapshot can
        coincide with a periodic one) replaces the previous row instead
        of duplicating the timestamp.
        """
        row: Dict[str, float] = {"cycle": int(cycle)}
        for name, source in self._sources.items():
            row[name] = source()
        if self.samples and self.samples[-1]["cycle"] == row["cycle"]:
            self.samples[-1] = row
        else:
            self.samples.append(row)
        return row

    # -- access ------------------------------------------------------------

    def series(self, name: str) -> List[Tuple[int, float]]:
        """The (cycle, value) time series of one metric."""
        if name not in self._sources:
            raise KeyError(f"unknown metric {name!r}")
        return [(int(row["cycle"]), row[name]) for row in self.samples]

    def latest(self, name: str) -> Optional[float]:
        if not self.samples:
            return None
        return self.samples[-1].get(name)

    def deltas(self, name: str) -> List[Tuple[int, float]]:
        """Per-interval increments of a cumulative counter (for rates)."""
        points = self.series(name)
        out: List[Tuple[int, float]] = []
        prev = 0.0
        for cycle, value in points:
            out.append((cycle, value - prev))
            prev = value
        return out

    # -- export ------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """One JSON object per sample, preceded by a meta header line."""
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "meta": True,
                        "schema": METRICS_SCHEMA_VERSION,
                        "interval": self.interval,
                        "metrics": self.names(),
                    }
                )
            )
            handle.write("\n")
            for row in self.samples:
                handle.write(json.dumps(row))
                handle.write("\n")
        return len(self.samples)
