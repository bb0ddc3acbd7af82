"""In-memory spans recorded by the suite around the program's public calls.

A span is one timed call: its name (``<layer>.<operation>``), start and
end on the ``perf_counter`` clock, the span that was open when it began
on the same thread, and the point it served.  Spans are kept in memory
and written as JSON lines when the run ends, so recording costs two
clock reads and a list append.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, point: Optional[str] = None
    ) -> Iterator[Dict[str, object]]:
        """Time the ``with`` body; yields the span record, whose ``end``
        is set once the body exits."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "point": point if point is not None else (parent or {}).get("point"),
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record) + "\n")
