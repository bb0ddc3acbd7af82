"""Bounded FIFO queues with space-available notification.

These model the finite I/O buffers in switches and engines.  A producer
that fails to ``push`` may register a callback that fires once exactly one
slot frees up, implementing credit-style backpressure without busy polling.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, List


class BoundedQueue:
    """A FIFO with finite capacity and "space freed" callbacks.

    Callbacks registered via :meth:`notify_on_space` are invoked (FIFO,
    one per freed slot) when an item is popped from a full-or-contended
    queue.  Each callback fires at most once per registration.
    """

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._waiters: Deque[Callable[[], None]] = deque()
        self.total_pushed = 0
        self.total_popped = 0
        self.push_failures = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: Any) -> bool:
        """Append ``item``; returns ``False`` (and counts a failure) if full."""
        items = self._items
        if len(items) >= self.capacity:
            self.push_failures += 1
            return False
        items.append(item)
        self.total_pushed += 1
        return True

    def push_front(self, item: Any) -> bool:
        """Return an item to the head of the queue (used by pooling retries)."""
        if self.is_full():
            self.push_failures += 1
            return False
        self._items.appendleft(item)
        self.total_pushed += 1
        return True

    def peek(self) -> Any:
        if not self._items:
            raise IndexError(f"peek on empty queue {self.name!r}")
        return self._items[0]

    def pop(self) -> Any:
        """Remove and return the head item, waking one space waiter."""
        if not self._items:
            raise IndexError(f"pop on empty queue {self.name!r}")
        item = self._items.popleft()
        self.total_popped += 1
        if self._waiters:
            self._waiters.popleft()()
        return item

    def remove(self, item: Any) -> bool:
        """Remove a specific item (identity match); used by flit stitching.

        Returns ``True`` when the item was found and removed.
        """
        for idx, existing in enumerate(self._items):
            if existing is item:
                del self._items[idx]
                self.total_popped += 1
                self._wake_one()
                return True
        return False

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once, the next time a slot is freed.

        If space is already available the callback fires immediately, which
        keeps producers simple: try push, on failure register, retry in the
        callback.
        """
        if not self.is_full():
            callback()
            return
        self._waiters.append(callback)

    def _wake_one(self) -> None:
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter()

    def drain(self) -> List[Any]:
        """Remove and return all items (used in teardown/tests)."""
        items = list(self._items)
        self._items.clear()
        self.total_popped += len(items)
        while self._waiters and not self.is_full():
            self._wake_one()
        return items
