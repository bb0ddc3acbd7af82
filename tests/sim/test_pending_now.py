"""``Engine.pending_now`` always equals ``peek_time() == now``.

The packet link's drain asks the engine, once per packet, whether
another event is pending in the current cycle, and batches the next
packet inline only when none is.  ``pending_now`` answers from the
running bucket and the top of the cycle heap, so it must agree with the
full ``peek_time`` in every engine state: between runs and inside
dispatched callbacks, with events far ahead, after a stop in the middle
of a bucket, after ``rewind``, and on the profiler's ``step()`` path.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.profiler import EngineProfiler
from repro.sim.engine import Engine


def _agree(engine: Engine) -> None:
    assert engine.pending_now() == (engine.peek_time() == engine.now)


class _Probe:
    """Callbacks that check the query when dispatched and schedule more."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.fired = 0

    def fire(self, spawn: tuple) -> None:
        self.fired += 1
        _agree(self.engine)
        for delay in spawn:
            self.engine.schedule(delay, self.fire, ())
            _agree(self.engine)


#: the span of the calendar ring the bucket engine replaced: delays
#: past it once went to a separate heap
HORIZON = 256

_delays = st.integers(min_value=0, max_value=700)
_spawn = st.lists(st.sampled_from((0, 0, 1, 3, 300)), max_size=3).map(tuple)

_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, _spawn),
    st.tuples(st.just("schedule_at"), _delays, _spawn),
    st.tuples(st.just("inject"), _delays, st.integers(0, 40)),
    st.tuples(
        st.just("run"),
        st.integers(min_value=0, max_value=800),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    ),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("rewind"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("profile"), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_pending_now_equals_peek_time_at_now(ops):
    engine = Engine()
    probe = _Probe(engine)
    for op in ops:
        kind = op[0]
        now = engine.now
        if kind == "schedule":
            engine.schedule(op[1], probe.fire, op[2])
        elif kind == "schedule_at":
            engine.schedule_at(now + op[1], probe.fire, op[2])
        elif kind == "inject":
            # between runs an injection may carry any past schedule key,
            # the current cycle included (kernel replay)
            time = now + op[1]
            engine.inject(time, time - op[2], probe.fire, ())
        elif kind == "run":
            engine.run(until=now + op[1], max_events=op[2])
        elif kind == "step":
            for _ in range(op[1]):
                engine.step()
                _agree(engine)
        elif kind == "rewind":
            engine.rewind(max(0, now - op[1]))
        else:
            engine.profiler = EngineProfiler() if op[1] else None
        _agree(engine)
    engine.run()
    _agree(engine)


def test_zero_delay_event_in_the_far_heap_is_pending_now():
    """A time-bounded run can park the clock between buckets; a
    zero-delay event then starts a new bucket on the heap, and it is
    still pending at the current cycle."""
    engine = Engine()
    fired = []
    engine.schedule(3 * HORIZON, fired.append, "late")
    engine.run(until=2 * HORIZON)
    assert engine.now == 2 * HORIZON
    assert not engine.pending_now()
    engine.schedule(0, fired.append, "now")
    assert engine.peek_time() == engine.now
    assert engine.pending_now()
    engine.run()
    assert fired == ["now", "late"]


def test_mid_bucket_stop_leaves_the_rest_of_the_cycle_pending():
    engine = Engine()
    fired = []
    for tag in "abc":
        engine.schedule(5, fired.append, tag)
    engine.run(max_events=1)
    assert fired == ["a"] and engine.now == 5
    assert engine.pending_now()
    engine.run(max_events=2)
    assert fired == ["a", "b", "c"]
    assert not engine.pending_now()
