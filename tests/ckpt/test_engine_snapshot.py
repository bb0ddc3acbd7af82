"""Engine snapshot protocol at the bucket engine's awkward edges.

A snapshot taken inside a callback sees the running cycle's bucket with
its dispatched prefix (the running event included) below ``_pos``.
Before ``Engine.__getstate__`` learned to drop that prefix (the same
hazard ``rewind()`` has been bitten by twice), a snapshot taken there
failed in two distinct ways:

* pickling died with ``PicklingError`` whenever a dispatched entry's
  callback was a closure (e.g. a compute unit's read-fill lambda on an
  already-completed request) — dead state vetoing a live snapshot;
* had pickling succeeded, restore would have *resurrected* the
  dispatched prefix and re-executed those events, corrupting the run.

These tests pin the fixed behavior at every edge a checkpoint can land
on: mid-bucket, right after a bucket is exhausted, events far ahead of
the clock (``HORIZON`` is the old calendar ring's span, kept as a
distance that once split the pending set), and the overshoot state
``run(until=...)`` leaves behind.
"""

import pickle

from repro.sim.engine import Engine

#: the span of the calendar ring the bucket engine replaced
HORIZON = 256

#: dispatch log shared between an engine and its pickled twin — the
#: recorder must be a module-level function so pickle stores it by
#: reference and the restored engine appends to the *same* list
_LOG = []


def _record(tag):
    _LOG.append(tag)


def _roundtrip(engine: Engine) -> Engine:
    return pickle.loads(pickle.dumps(engine))


def test_checkpoint_near_ring_wrap_restores_undispatched_suffix():
    """A snapshot within HORIZON cycles of a wrap keeps exactly the
    undispatched suffix — no lost events, no resurrected ones."""

    def build() -> Engine:
        engine = Engine()
        for t in range(0, 3 * HORIZON, 7):
            engine.schedule_at(t, _record, f"t{t}")
        return engine

    _LOG.clear()
    reference = build()
    reference.run()
    expected = list(_LOG)
    assert len(expected) == (3 * HORIZON + 6) // 7

    # stop just shy of the old ring's first wrap
    cut = HORIZON - 3
    _LOG.clear()
    interrupted = build()
    interrupted.run(until=cut)
    prefix = list(_LOG)
    assert 0 < len(prefix) < len(expected)

    _LOG.clear()
    restored = _roundtrip(interrupted)
    assert restored.now == cut
    assert restored.pending_events() == len(expected) - len(prefix)
    restored.run()
    assert prefix + list(_LOG) == expected
    assert restored.now == reference.now
    assert restored.events_processed == reference.events_processed


def test_dead_prefix_closure_does_not_block_pickling():
    """A dispatched closure lingering in the current bucket's consumed
    prefix must not veto the snapshot (pre-fix: PicklingError)."""
    engine = Engine()
    sentinel = []
    engine.schedule(5, lambda: sentinel.append("dead"))
    engine.schedule(5, _record, "live-1")
    engine.schedule(5, _record, "live-2")
    engine.run(max_events=1)  # dispatches the lambda, keeps the bucket
    assert sentinel == ["dead"]

    _LOG.clear()
    restored = _roundtrip(engine)
    assert restored.pending_events() == 2
    restored.run()
    assert _LOG == ["live-1", "live-2"]

    # the original engine is untouched by being snapshotted
    _LOG.clear()
    engine.run()
    assert _LOG == ["live-1", "live-2"]


def test_exhausted_unrecycled_bucket_is_not_resurrected():
    """A snapshot right after ``step()`` exhausts a bucket must not
    re-execute its entries."""
    engine = Engine()
    engine.schedule(0, _record, "a")
    engine.schedule(0, _record, "b")
    engine.schedule(10, _record, "c")
    _LOG.clear()
    assert engine.step() and engine.step()
    assert _LOG == ["a", "b"]

    _LOG.clear()
    restored = _roundtrip(engine)
    assert restored.pending_events() == 1
    restored.run()
    assert _LOG == ["c"]
    assert restored.now == 10
    assert restored.events_processed == 3


def test_far_heap_straddles_the_restore_window():
    """Events up to three horizons ahead of a restored clock keep their
    order."""
    engine = Engine()
    times = [3, HORIZON + 5, 2 * HORIZON + 7, 3 * HORIZON]
    for t in times:
        engine.schedule_at(t, _record, f"t{t}")
    _LOG.clear()
    engine.run(until=HORIZON + 1)
    assert _LOG == ["t3"]

    _LOG.clear()
    restored = _roundtrip(engine)
    restored.run()
    assert _LOG == [f"t{t}" for t in times[1:]]
    assert restored.now == 3 * HORIZON


def test_overshoot_clock_is_preserved():
    """``run(until=T)`` drains early and parks the clock at ``T``; the
    snapshot must keep that clock, not the last event's."""
    engine = Engine()
    engine.schedule(1, _record, "x")
    _LOG.clear()
    engine.run(until=500)
    assert engine.now == 500

    restored = _roundtrip(engine)
    assert restored.now == 500
    assert restored.pending_events() == 0
    restored.schedule(3, _record, "y")
    _LOG.clear()
    restored.run()
    assert _LOG == ["y"]
    assert restored.now == 503


def test_rewind_works_on_a_restored_engine():
    """Sharded kernel replay calls ``rewind()`` between windows; it must
    behave identically on a freshly restored engine."""
    engine = Engine()
    engine.schedule_at(50, _record, "r1")
    engine.schedule_at(700, _record, "r2")
    engine.run(until=60)
    restored = _roundtrip(engine)
    restored.rewind(10)
    assert restored.now == 10
    _LOG.clear()
    restored.run()
    assert _LOG == ["r2"]
    assert restored.now == 700


def test_sequence_counter_survives_the_roundtrip():
    """Post-restore scheduling lands after pre-snapshot events of the
    same cycle, so FIFO tie-breaks stay deterministic."""
    engine = Engine()
    engine.schedule(5, _record, "first")
    restored = _roundtrip(engine)
    restored.schedule(5, _record, "second")
    _LOG.clear()
    restored.run()
    assert _LOG == ["first", "second"]
