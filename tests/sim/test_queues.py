"""Tests for bounded queues with backpressure callbacks."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.queues import BoundedQueue


def test_push_pop_fifo():
    q = BoundedQueue(4)
    for i in range(3):
        assert q.push(i)
    assert [q.pop() for _ in range(3)] == [0, 1, 2]


def test_capacity_enforced():
    q = BoundedQueue(2)
    assert q.push("a")
    assert q.push("b")
    assert not q.push("c")
    assert q.push_failures == 1
    assert len(q) == 2


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        BoundedQueue(0)


def test_push_front_returns_to_head():
    q = BoundedQueue(4)
    q.push(1)
    q.push(2)
    q.push_front(0)
    assert q.pop() == 0


def test_peek_does_not_remove():
    q = BoundedQueue(2)
    q.push("x")
    assert q.peek() == "x"
    assert len(q) == 1


def test_peek_empty_raises():
    with pytest.raises(IndexError):
        BoundedQueue(1).peek()


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        BoundedQueue(1).pop()


def test_notify_fires_immediately_when_space():
    q = BoundedQueue(2)
    fired = []
    q.notify_on_space(lambda: fired.append(True))
    assert fired == [True]


def test_notify_deferred_until_pop():
    q = BoundedQueue(1)
    q.push("a")
    fired = []
    q.notify_on_space(lambda: fired.append(True))
    assert fired == []
    q.pop()
    assert fired == [True]


def test_notify_fires_once_per_registration():
    q = BoundedQueue(1)
    q.push("a")
    fired = []
    q.notify_on_space(lambda: fired.append(True))
    q.pop()
    q.push("b")
    q.pop()
    assert fired == [True]


def test_waiters_woken_fifo_one_per_slot():
    q = BoundedQueue(1)
    q.push("a")
    fired = []
    q.notify_on_space(lambda: fired.append(1))
    q.notify_on_space(lambda: fired.append(2))
    q.pop()
    assert fired == [1]
    q.push("b")
    q.pop()
    assert fired == [1, 2]


def test_remove_by_identity():
    q = BoundedQueue(4)
    a, b = object(), object()
    q.push(a)
    q.push(b)
    assert q.remove(b)
    assert not q.remove(b)
    assert list(q) == [a]


def test_remove_wakes_waiter():
    q = BoundedQueue(1)
    item = object()
    q.push(item)
    fired = []
    q.notify_on_space(lambda: fired.append(True))
    q.remove(item)
    assert fired == [True]


def test_drain_returns_all():
    q = BoundedQueue(4)
    for i in range(3):
        q.push(i)
    assert q.drain() == [0, 1, 2]
    assert len(q) == 0


def test_counters():
    q = BoundedQueue(2)
    q.push(1)
    q.push(2)
    q.pop()
    assert q.total_pushed == 2
    assert q.total_popped == 1
    assert q.capacity - len(q) == 1


@given(st.lists(st.sampled_from(["push", "pop"]), max_size=200), st.integers(1, 8))
def test_queue_never_exceeds_capacity(ops, capacity):
    """Property: size stays within [0, capacity] under any push/pop mix."""
    q = BoundedQueue(capacity)
    expected = []
    counter = 0
    for op in ops:
        if op == "push":
            pushed = q.push(counter)
            assert pushed == (len(expected) < capacity)
            if pushed:
                expected.append(counter)
            counter += 1
        elif expected:
            assert q.pop() == expected.pop(0)
        assert 0 <= len(q) <= capacity
    assert list(q) == expected
