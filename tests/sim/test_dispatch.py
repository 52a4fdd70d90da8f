"""The kernel's two entry points agree: ``run(until=T)`` and a chain of
``run_window`` calls over arbitrary cut points fire the same events in
the same order, leave the same clock and count the same events.  And
the kernel's FIFO of events due now changes nothing: against a
reference environment that puts every event on the heap, mixed
programs fire the same events in the same order.

Firing order is read from the telemetry ``kernel_tick`` stream, the
per-event hook both entry points call.  Queue depth is compared exactly
where both sides hold a stop event; while the windowed side runs its
windows it holds none, so there it must read one less.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import DELIVERY, Event, Interrupt


class _Ticks:
    """A minimal enabled bus that records every kernel tick."""

    enabled = True

    def __init__(self):
        self.ticks = []
        #: How many of ``ticks`` fired inside ``run_window`` calls.
        self.n_window = 0

    def kernel_tick(self, ts, events_processed, queue_depth, event):
        self.ticks.append((ts, events_processed, queue_depth, type(event).__name__))

    def __getattr__(self, name):  # any other bus hook is a no-op
        return lambda *args, **kwargs: None


class _Boom(Exception):
    pass


#: One process: a list of steps, each a timeout delay (small, so ties
#: are common) or a child process it spawns and joins.
_steps = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40),
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=6,
)
_programs = st.lists(_steps, min_size=1, max_size=5)


def _build(programs, raise_at=None, raise_in_callback=False):
    """A fresh environment running ``programs``; returns it, its tick
    recorder and the shared process log.

    ``raise_at`` adds an event at that time that raises when dispatched:
    a failing process, or with ``raise_in_callback`` a timeout whose
    callback raises.
    """
    env = Environment()
    bus = env.telemetry = _Ticks()
    log = []

    def child(env, pid, delays):
        for d in delays:
            yield env.timeout(d)
            log.append((pid, "child", env.now))

    def proc(env, pid, steps):
        for i, step in enumerate(steps):
            if isinstance(step, list):
                yield env.process(child(env, pid, step))
            else:
                yield env.timeout(step)
            log.append((pid, i, env.now))

    for pid, steps in enumerate(programs):
        env.process(proc(env, pid, steps))

    if raise_at is not None:
        if raise_in_callback:
            def boom(_event):
                raise _Boom()

            env.timeout(raise_at).callbacks.append(boom)
        else:
            def failing(env):
                yield env.timeout(raise_at)
                raise _Boom()

            env.process(failing(env))
    return env, bus, log


def _windowed(env, cuts, until):
    """Drive ``env`` through ``run_window`` at each cut, then finish
    with ``run(until)``."""
    bus = env.telemetry
    for cut in cuts:
        before = len(bus.ticks)
        try:
            env.run_window(cut)
        finally:
            bus.n_window = len(bus.ticks)
        assert all(ts < cut for ts, *_ in bus.ticks[before:])
        assert env.peek() >= cut
    env.run(until=until)


def _assert_same(run_side, win_side):
    (env_a, bus_a, log_a), (env_b, bus_b, log_b) = run_side, win_side
    n_window = bus_b.n_window
    assert log_a == log_b
    assert env_a.now == env_b.now
    assert env_a.events_processed == env_b.events_processed
    assert [t[:2] + t[3:] for t in bus_a.ticks] == [
        t[:2] + t[3:] for t in bus_b.ticks
    ]
    for i, (a, b) in enumerate(zip(bus_a.ticks, bus_b.ticks)):
        assert a[2] == b[2] + (1 if i < n_window else 0)
    if bus_a.ticks:
        assert env_a.events_processed == bus_a.ticks[-1][1]


@given(
    programs=_programs,
    until=st.integers(min_value=0, max_value=200),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_windows_then_run_match_one_run(programs, until, cuts):
    cuts = sorted(c for c in cuts if c <= until)
    run_side = _build(programs)
    run_side[0].run(until=until)
    win_side = _build(programs)
    _windowed(win_side[0], cuts, until)
    _assert_same(run_side, win_side)
    assert run_side[0].now == until


@given(
    programs=_programs,
    raise_at=st.integers(min_value=0, max_value=100),
    raise_in_callback=st.booleans(),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_a_raise_leaves_both_entry_points_in_the_same_state(
    programs, raise_at, raise_in_callback, cuts
):
    until = 200
    cuts = sorted(cuts)
    run_side = _build(programs, raise_at, raise_in_callback)
    with pytest.raises(_Boom):
        run_side[0].run(until=until)
    win_side = _build(programs, raise_at, raise_in_callback)
    with pytest.raises(_Boom):
        _windowed(win_side[0], cuts, until)
    _assert_same(run_side, win_side)
    assert run_side[0].now == raise_at
    # A raising callback leaves its event uncounted and unticked; a
    # failing process's event is counted and ticked before it raises.
    fired = run_side[0].events_processed
    assert fired == len(run_side[1].ticks)
    if not raise_in_callback:
        assert run_side[1].ticks[-1][0] == raise_at


def test_run_window_stops_strictly_below_its_limit():
    env = Environment()
    fired = []
    for t in (5, 10, 10, 15):
        env.timeout(t).callbacks.append(lambda e: fired.append(env.now))
    assert env.run_window(10) == 1
    assert (fired, env.now, env.peek()) == ([5], 5, 10)
    assert env.run_window(16) == 3
    assert (fired, env.now, env.events_processed) == ([5, 10, 10, 15], 15, 4)
    assert env.run_window(100) == 0


# -- the zero-delay FIFO against a heap-only kernel ---------------------------


class _HeapFifo:
    """Stands in for the kernel's FIFO of events due now: it forwards
    every entry to the heap and always reads as empty, so the
    environment dispatches from its heap alone, in the heap's order."""

    def __init__(self, heap):
        self._heap = heap

    def append(self, entry):
        heapq.heappush(self._heap, entry)

    def popleft(self):  # pragma: no cover - the FIFO never holds anything
        raise AssertionError("the heap-only FIFO is always empty")

    def __len__(self):
        return 0


class _HeapOnlyEnvironment(Environment):
    """The reference kernel: every event goes through the heap."""

    def __init__(self):
        super().__init__()
        self._fifo = _HeapFifo(self._queue)


_delay = st.one_of(st.just(0), st.integers(min_value=0, max_value=20))
_op = st.one_of(
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("succeed"), _delay),
    st.tuples(st.just("fail"), _delay),
    st.tuples(st.just("first_of"), _delay, _delay),
    st.tuples(st.just("child"), st.lists(_delay, min_size=1, max_size=3)),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("interrupt_twice"), st.integers(min_value=0, max_value=4)),
)
_mixed_programs = st.lists(
    st.lists(_op, min_size=1, max_size=6), min_size=1, max_size=4
)


def _build_mixed(env, programs):
    """Start ``programs`` on ``env``; returns its tick recorder and log.

    ``succeed``/``fail`` wait on an event that a timeout's callback
    triggers (a zero-delay trigger from inside dispatch), ``first_of``
    races two timeouts, ``child`` joins a process that ends, and
    ``interrupt`` interrupts another process (URGENT) if it is alive;
    ``interrupt_twice`` does so twice at the same instant, so the second
    may fall due after the first has ended the process.
    """
    bus = env.telemetry = _Ticks()
    log = []
    procs = []

    def child(env, pid, delays):
        for d in delays:
            yield env.timeout(d)
        log.append((pid, "child", env.now))
        return pid

    def trigger(event, kind, tag):
        def fire(_timeout):
            if kind == "succeed":
                event.succeed(tag)
            else:
                event.fail(_Boom(*tag))

        return fire

    def proc(env, pid, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "timeout":
                    value = yield env.timeout(op[1])
                elif kind in ("succeed", "fail"):
                    event = env.event()
                    env.timeout(op[1]).callbacks.append(
                        trigger(event, kind, (pid, i))
                    )
                    value = yield event
                elif kind == "first_of":
                    value = yield env.first_of(
                        env.timeout(op[1], "a"), env.timeout(op[2], "b")
                    )
                elif kind == "child":
                    value = yield env.process(child(env, pid, op[1]))
                else:
                    target = procs[op[1] % len(procs)]
                    if target is not procs[pid] and target.is_alive:
                        target.interrupt((pid, i))
                        if kind == "interrupt_twice":
                            target.interrupt((pid, i, "again"))
                    value = None
                log.append((pid, i, env.now, repr(value)))
            except Interrupt as irq:
                log.append((pid, i, env.now, "interrupt", irq.cause))
            except _Boom as exc:
                log.append((pid, i, env.now, "boom", exc.args))

    for pid, ops in enumerate(programs):
        procs.append(env.process(proc(env, pid, ops)))
    return bus, log


def _drive_mixed(env, log, cuts, until):
    """``run_window`` at each cut, arming a DELIVERY wake-up and a
    zero-delay timeout between windows (as the shard barrier does),
    then ``run(until)`` and a final drain.  A failure nobody waited for
    raises out of the kernel; it is logged and the run goes on.  An
    interrupt never escapes: one that falls due after its process ended
    is dropped."""

    def note(tag):
        return lambda _event: log.append((tag, env.now))

    def attempt(step):
        while True:
            try:
                return step()
            except _Boom as exc:
                log.append(("raised", env.now, repr(exc)))

    for k, (cut, extra) in enumerate(cuts):
        attempt(lambda: env.run_window(cut))
        log.append(("window", cut, env.now, env.peek(), env.queue_length))
        wake = Event(env)
        wake._ok = True
        wake._value = None
        wake.callbacks = [note(("delivery", k))]
        env.schedule(wake, delay=max(cut - env.now, 0) + extra, priority=DELIVERY)
        env.timeout(0).callbacks.append(note(("between", k)))
    attempt(lambda: env.run(until=until))
    log.append(("until", env.now, env.peek(), env.queue_length))
    attempt(env.run)


@given(
    programs=_mixed_programs,
    cuts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ),
    until=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=200, deadline=None)
def test_fifo_dispatch_matches_a_heap_only_kernel(programs, cuts, until):
    cuts = sorted(cuts)
    until = max([until] + [cut + extra for cut, extra in cuts])
    sides = []
    for env in (Environment(), _HeapOnlyEnvironment()):
        bus, log = _build_mixed(env, programs)
        _drive_mixed(env, log, cuts, until)
        sides.append((log, env.now, env.events_processed, bus.ticks))
    assert sides[0] == sides[1]


def test_events_due_now_skip_the_heap():
    env = Environment()
    env.event().succeed()
    env.timeout(0)
    env.timeout(3)
    assert (len(env._fifo), len(env._queue), env.queue_length) == (2, 1, 3)
    assert env.peek() == 0
    assert env.run_window(1) == 2
    assert (env.peek(), env.queue_length) == (3, 1)
