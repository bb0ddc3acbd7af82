"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_initial_state():
    eng = Engine()
    assert eng.now == 0
    assert eng.pending_events() == 0
    assert eng.events_processed == 0


def test_schedule_and_run_advances_time():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "a")
    eng.run()
    assert fired == ["a"]
    assert eng.now == 10


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(30, order.append, 30)
    eng.schedule(10, order.append, 10)
    eng.schedule(20, order.append, 20)
    eng.run()
    assert order == [10, 20, 30]


def test_same_cycle_events_fire_fifo():
    eng = Engine()
    order = []
    for i in range(5):
        eng.schedule(7, order.append, i)
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_zero_delay_runs_after_current_same_cycle_events():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(0, order.append, "nested")

    eng.schedule(5, first)
    eng.schedule(5, order.append, "second")
    eng.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_run_until_stops_at_boundary():
    eng = Engine()
    fired = []
    eng.schedule(5, fired.append, "early")
    eng.schedule(50, fired.append, "late")
    eng.run(until=10)
    assert fired == ["early"]
    assert eng.now == 10
    assert eng.pending_events() == 1
    eng.run()
    assert fired == ["early", "late"]


def test_run_until_includes_events_at_boundary():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "at")
    eng.run(until=10)
    assert fired == ["at"]


def test_max_events_limit():
    eng = Engine()
    for i in range(10):
        eng.schedule(i, lambda: None)
    executed = eng.run(max_events=4)
    assert executed == 4
    assert eng.pending_events() == 6


def test_events_can_schedule_more_events():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.schedule(1, chain, n + 1)

    eng.schedule(0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert eng.now == 5


def test_step_executes_single_event():
    eng = Engine()
    fired = []
    eng.schedule(1, fired.append, 1)
    eng.schedule(2, fired.append, 2)
    assert eng.step()
    assert fired == [1]
    assert eng.step()
    assert not eng.step()


def test_peek_time():
    eng = Engine()
    assert eng.peek_time() is None
    eng.schedule(42, lambda: None)
    assert eng.peek_time() == 42


def test_events_processed_counter():
    eng = Engine()
    for i in range(7):
        eng.schedule(i, lambda: None)
    eng.run()
    assert eng.events_processed == 7


def test_reentrant_run_rejected():
    eng = Engine()

    def nested():
        with pytest.raises(SimulationError):
            eng.run()

    eng.schedule(0, nested)
    eng.run()


def test_step_dispatch_holds_the_engine_running():
    """A callback dispatched by ``step()`` may not rewind its own cycle,
    re-enter ``step()``/``run()``, or inject below its schedule key."""
    eng = Engine()
    refused = []

    def callback():
        for call in (
            lambda: eng.rewind(eng.now),
            eng.step,
            eng.run,
            lambda: eng.inject(eng.now, eng.cur_skey - 1, lambda: None),
        ):
            try:
                call()
            except SimulationError:
                refused.append(call)

    eng.schedule(3, lambda: None)
    eng.run()
    eng.schedule(2, callback)
    eng.schedule(2, lambda: None)
    assert eng.step()
    assert len(refused) == 4
    # the engine is usable again once the step returns
    assert eng.step() and not eng.step()
    assert eng.events_processed == 3


def test_callback_args_passed_through():
    eng = Engine()
    got = []
    eng.schedule(1, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
    eng.run()
    assert got == [(1, "x", None)]


def test_run_until_advances_clock_when_queue_drains_early():
    eng = Engine()
    eng.schedule(5, lambda: None)
    eng.run(until=20)
    assert eng.now == 20


def test_run_until_advances_clock_on_empty_queue():
    eng = Engine()
    eng.run(until=15)
    assert eng.now == 15


def test_run_until_never_moves_clock_backwards():
    eng = Engine()
    eng.schedule(30, lambda: None)
    eng.run()
    assert eng.now == 30
    eng.run(until=10)
    assert eng.now == 30


def test_max_events_break_does_not_jump_to_until():
    eng = Engine()
    for i in range(10):
        eng.schedule(i, lambda: None)
    eng.run(until=100, max_events=4)
    # events at cycles 4..9 are still due before 100, so the clock must
    # stay at the last executed event, not leap to the bound
    assert eng.now == 3
    assert eng.pending_events() == 6


def test_max_events_break_after_queue_drained_still_advances():
    eng = Engine()
    eng.schedule(2, lambda: None)
    eng.run(until=50, max_events=1)
    assert eng.now == 50


def _cycle_with_keys():
    """Cycle 10 holding events with schedule keys 0, 5 and 5 (in seq order)."""
    eng = Engine()
    order = []
    eng.inject(10, 0, order.append, "k0")
    eng.inject(10, 5, order.append, "k5a")
    eng.inject(10, 5, order.append, "k5b")
    return eng, order


def test_inject_later_in_the_running_cycle():
    eng, order = _cycle_with_keys()

    def inject_from(event):
        order.append(event)
        # below the pending key-5 events: runs before them
        eng.inject(10, 3, order.append, "k3")
        # the running event's own key: its fresh seq sorts it after the
        # running event, behind every same-key event already queued
        eng.inject(10, 1, order.append, "k1")

    eng.inject(10, 1, inject_from, "k1-injector")
    eng.inject(10, 5, order.append, "k5c")
    eng.run()
    assert order == ["k0", "k1-injector", "k1", "k3", "k5a", "k5b", "k5c"]
    assert eng.now == 10


def test_inject_into_the_dispatched_part_of_the_cycle_is_refused():
    eng, order = _cycle_with_keys()
    refused = []

    def inject_from(event):
        order.append(event)
        for skey in (0, 4):
            try:
                eng.inject(10, skey, order.append, f"late{skey}")
            except SimulationError:
                refused.append(skey)

    eng.inject(10, 5, inject_from, "k5-injector")
    eng.run()
    assert refused == [0, 4]
    assert order == ["k0", "k5a", "k5b", "k5-injector"]


def test_inject_at_the_current_cycle_while_profiled():
    """The profiled (step-wise) dispatch path honours the same order."""
    from repro.obs.profiler import EngineProfiler

    eng, order = _cycle_with_keys()
    eng.profiler = EngineProfiler()
    eng.inject(10, 0, lambda: eng.inject(10, 2, order.append, "k2"))
    eng.run()
    assert order == ["k0", "k2", "k5a", "k5b"]


def test_checks_hold_when_the_target_cycle_has_a_bucket():
    """``schedule``/``schedule_at`` check the time only when they create a
    bucket; a past or fractional time must still never join one."""
    eng = Engine()
    fired = []
    eng.schedule(4, fired.append, "a")
    eng.schedule(5, fired.append, "b")
    eng.run(until=4)
    # the clock is at 4 and a bucket waits at 5
    with pytest.raises(SimulationError):
        eng.schedule(-1, fired.append, "past")
    with pytest.raises(SimulationError):
        eng.schedule_at(3, fired.append, "past")
    eng.schedule(1.0, fired.append, "c")
    eng.schedule(1.7, fired.append, "d")
    eng.schedule_at(5.9, fired.append, "e")
    eng.run()
    assert fired == ["a", "b", "c", "d", "e"]
    assert eng.now == 5 and type(eng.now) is int
