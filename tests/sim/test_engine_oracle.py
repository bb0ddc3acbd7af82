"""The engine against its documented ordering model, operation by operation.

The oracle is the model the engine's docstring states: a list of pending
events sorted by ``(time, order key, seq)``, where ``seq`` is insertion
order and the order key is the schedule key — except that an event
appended by ``schedule``/``schedule_at`` to a cycle holding events with a
larger key (possible only after ``rewind``) takes the largest key there,
so it runs after them: the documented arrival-order rule.  An injection
into such a cycle bisects an unsorted bucket, which the model does not
describe; the test skips those.

Random programs drive ``schedule``, ``schedule_at``, ``inject`` (past
schedule keys included), ``run(until, max_events)``, ``step``, profiler
toggles, ``rewind`` and pickle round trips, between runs and from inside
dispatched callbacks.  The oracle advances in lockstep: every dispatched
callback pops the oracle's next event, and after every operation — and
inside every callback — the dispatch logs, the clock, the counters and
every query must agree.
"""

import pickle
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.profiler import EngineProfiler
from repro.sim.engine import Engine, SimulationError


class _Oracle:
    def __init__(self) -> None:
        self.now = 0
        self.done = 0
        self.cur_skey = 0
        self.running = False
        #: (time, order key, seq, skey, tag), sorted
        self.pending = []
        self.seq = 0
        self.log = []

    def _at(self, time):
        return [entry for entry in self.pending if entry[0] == time]

    def _insert(self, time, okey, skey, tag) -> None:
        self.seq += 1
        insort(self.pending, (time, okey, self.seq, skey, tag))

    def append(self, time, tag) -> None:
        okey = max([self.now] + [entry[1] for entry in self._at(time)])
        self._insert(time, okey, self.now, tag)

    def inject(self, time, skey, tag) -> None:
        self._insert(time, skey, skey, tag)

    def refuses(self, time, skey) -> bool:
        return (
            time < self.now
            or (time == self.now and self.running and skey < self.cur_skey)
            or skey > time
        )

    def rewound_bucket(self, time) -> bool:
        return any(entry[1] != entry[3] for entry in self._at(time))

    def pop(self) -> None:
        time, _okey, _seq, skey, tag = self.pending.pop(0)
        self.now = time
        self.cur_skey = skey
        self.done += 1
        self.log.append((time, skey, tag))

    def peek_time(self):
        return self.pending[0][0] if self.pending else None

    def peek_key(self):
        return (self.pending[0][0], self.pending[0][3]) if self.pending else None

    def park(self, until) -> None:
        if until is not None and until > self.now:
            nxt = self.peek_time()
            if nxt is None or nxt > until:
                self.now = until


class _Ctx:
    """The engine under test and its oracle, reachable from callbacks.

    Module-level, so a pickled engine refers to :func:`_fire` by name and
    carries no copy of the test's state.
    """

    engine: Engine
    oracle: _Oracle
    log: list
    tags: int


_CTX = _Ctx()


def _agree(engine: Engine) -> None:
    oracle = _CTX.oracle
    assert _CTX.log == oracle.log
    assert engine.now == oracle.now
    assert engine.events_processed == oracle.done
    assert engine.pending_events() == len(oracle.pending)
    assert engine.peek_key() == oracle.peek_key()
    assert engine.peek_time() == oracle.peek_time()
    assert engine.pending_now() == (oracle.peek_time() == oracle.now)
    assert engine.cur_skey == oracle.cur_skey


def _add(kind, delay, back, spawn) -> None:
    engine, oracle = _CTX.engine, _CTX.oracle
    tag = _CTX.tags
    _CTX.tags += 1
    now = engine.now
    if kind == "schedule":
        engine.schedule(delay, _fire, tag, spawn)
        oracle.append(now + delay, tag)
    elif kind == "schedule_at":
        engine.schedule_at(now + delay, _fire, tag, spawn)
        oracle.append(now + delay, tag)
    else:
        time = now + delay
        skey = time - back
        if oracle.rewound_bucket(time):
            return
        if oracle.refuses(time, skey):
            with pytest.raises(SimulationError):
                engine.inject(time, skey, _fire, tag, spawn)
            return
        engine.inject(time, skey, _fire, tag, spawn)
        oracle.inject(time, skey, tag)


def _fire(tag, spawn) -> None:
    engine = _CTX.engine
    _CTX.log.append((engine.now, engine.cur_skey, tag))
    _CTX.oracle.pop()
    _agree(engine)
    for index, (kind, delay, back) in enumerate(spawn):
        if kind == "pickle":
            # a snapshot taken mid-dispatch holds exactly the pending set
            _agree(pickle.loads(pickle.dumps(engine)))
        elif kind == "rewind":
            if _CTX.oracle.running:
                with pytest.raises(SimulationError):
                    engine.rewind(engine.now)
        else:
            _add(kind, delay, back, spawn[index + 1 :])
        _agree(engine)


_spawn_op = st.one_of(
    st.tuples(
        st.sampled_from(("schedule", "schedule_at")),
        st.sampled_from((0, 0, 1, 3, 300)),
        st.just(0),
    ),
    st.tuples(st.just("inject"), st.sampled_from((0, 1, 5, 300)), st.integers(0, 40)),
    st.tuples(st.sampled_from(("pickle", "rewind")), st.just(0), st.just(0)),
)
_spawn = st.lists(_spawn_op, max_size=3).map(tuple)
_delays = st.integers(min_value=0, max_value=700)

_ops = st.one_of(
    st.tuples(st.sampled_from(("schedule", "schedule_at")), _delays, st.just(0), _spawn),
    st.tuples(st.just("inject"), _delays, st.integers(0, 60), _spawn),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.integers(min_value=0, max_value=800)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    ),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("rewind"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("profile"), st.booleans()),
    st.tuples(st.just("pickle")),
)


def _run(until, max_events) -> None:
    engine, oracle = _CTX.engine, _CTX.oracle
    before = oracle.done
    oracle.running = True
    try:
        executed = engine.run(until=until, max_events=max_events)
    finally:
        oracle.running = False
    assert executed == oracle.done - before
    if max_events is None or executed < max_events:
        nxt = oracle.peek_time()
        assert nxt is None or (until is not None and nxt > until)
    oracle.park(until)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_engine_follows_the_ordering_model(ops):
    _CTX.engine = Engine()
    _CTX.oracle = _Oracle()
    _CTX.log = []
    _CTX.tags = 0
    for op in ops:
        kind = op[0]
        engine = _CTX.engine
        if kind in ("schedule", "schedule_at", "inject"):
            _add(kind, op[1], op[2], op[3])
        elif kind == "run":
            _run(None if op[1] is None else engine.now + op[1], op[2])
        elif kind == "step":
            for _ in range(op[1]):
                expected = bool(_CTX.oracle.pending)
                # step() holds the engine running for its dispatch
                _CTX.oracle.running = True
                try:
                    assert engine.step() == expected
                finally:
                    _CTX.oracle.running = False
                _agree(engine)
        elif kind == "rewind":
            time = max(0, engine.now - op[1])
            engine.rewind(time)
            _CTX.oracle.now = time
        elif kind == "profile":
            engine.profiler = EngineProfiler() if op[1] else None
        else:
            _CTX.engine = pickle.loads(pickle.dumps(engine))
        _agree(_CTX.engine)
    _run(None, None)
    _agree(_CTX.engine)
    assert not _CTX.oracle.pending


def test_an_append_after_rewind_keeps_arrival_order():
    """The documented corner: after ``rewind``, an event scheduled into a
    bucket that holds a pre-rewind event with a later schedule key runs
    after it, however far ahead the bucket lies."""
    engine = Engine()
    fired = []
    engine.schedule_at(100, lambda: None)
    engine.run()
    engine.schedule_at(400, fired.append, "scheduled at 100")
    engine.rewind(90)
    engine.schedule(310, fired.append, "scheduled at 90")
    assert engine.peek_key() == (400, 100)
    engine.run()
    assert fired == ["scheduled at 100", "scheduled at 90"]
