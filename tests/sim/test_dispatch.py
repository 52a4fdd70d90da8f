"""The kernel's two entry points agree: ``run(until=T)`` and a chain of
``run_window`` calls over arbitrary cut points fire the same events in
the same order, leave the same clock and count the same events.

Firing order is read from the telemetry ``kernel_tick`` stream, the
per-event hook both entry points call.  Queue depth is compared exactly
where both sides hold a stop event; while the windowed side runs its
windows it holds none, so there it must read one less.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


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
