"""Ordering fence: ``env.first_of(a, b)`` behaves as ``env.any_of([a, b])``.

``FirstOf`` is the lean two-event form of ``AnyOf`` the credit scheduler
waits on.  Swapping one for the other must not move a single event: the
waiter resumes at the same time, after the same number of processed
events, with the same heap behind it, and failures reach it (and are
defused) the same way.  Each example runs one random schedule twice,
once per combinator, and compares everything observable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import ConditionValue, Environment, FirstOf

#: One sub-event: a timeout with delay ``at``, or a plain event that is
#: succeeded, failed or never triggered.  A ``succeed``/``fail`` fires at
#: ``at``, or, when ``early``, just before the condition is built, so it
#: is triggered but not yet processed.  A ``watched`` event has a second
#: waiter that swallows its failure, so a processed failure can reach
#: the condition without stopping the run.
SUB_EVENT = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["timeout", "succeed", "fail", "never"]),
        "at": st.integers(min_value=0, max_value=6),
        "early": st.booleans(),
        "watched": st.booleans(),
    }
)


def _fire(event, spec, tag):
    if event.triggered:
        return
    if spec["kind"] == "succeed":
        event.succeed(tag)
    elif spec["kind"] == "fail":
        event.fail(RuntimeError(tag))


def _run(spec_a, spec_b, build_at, noise, combinator):
    env = Environment()
    log = []

    def sleeper(env, delay):
        yield env.timeout(delay)

    def watcher(env, event):
        try:
            yield event
        except RuntimeError:
            pass

    def trigger_at(env, event, spec, tag):
        yield env.timeout(spec["at"])
        _fire(event, spec, tag)

    # Background processes with timeouts at the same instants, so the
    # condition's heap sequence number decides the order.
    for delay in noise:
        env.process(sleeper(env, delay))

    subs = []
    for tag, spec in (("a", spec_a), ("b", spec_b)):
        if spec["kind"] == "timeout":
            event = env.timeout(spec["at"], value=tag)
        else:
            event = env.event()
            if spec["kind"] != "never" and not spec["early"]:
                env.process(trigger_at(env, event, spec, tag))
        if spec["watched"]:
            env.process(watcher(env, event))
        subs.append((event, spec, tag))

    def waiter(env):
        yield env.timeout(build_at)
        for event, spec, tag in subs:
            if spec["early"]:
                _fire(event, spec, tag)
        a, b = subs[0][0], subs[1][0]
        if combinator == "first_of":
            condition = env.first_of(a, b)
        else:
            condition = env.any_of([a, b])
        try:
            value = yield condition
        except RuntimeError as exc:
            outcome = ("fail", exc.args)
        else:
            if isinstance(value, ConditionValue):
                # The winner is the first fired sub-event in list order.
                value = value[next(iter(value))]
            outcome = ("ok", value)
        log.append((env.now, env.events_processed, env.queue_length, outcome))

    env.process(waiter(env))
    try:
        env.run()
        uncaught = None
    except RuntimeError as exc:
        uncaught = exc.args
    return log, uncaught, env.now, env.events_processed


@given(
    spec_a=SUB_EVENT,
    spec_b=SUB_EVENT,
    build_at=st.integers(min_value=0, max_value=6),
    noise=st.lists(st.integers(min_value=0, max_value=6), max_size=6),
)
@settings(max_examples=400, deadline=None)
def test_first_of_resumes_exactly_like_any_of(spec_a, spec_b, build_at, noise):
    first = _run(spec_a, spec_b, build_at, noise, "first_of")
    any_ = _run(spec_a, spec_b, build_at, noise, "any_of")
    assert first == any_


def test_value_is_the_winners_value():
    env = Environment()
    seen = []

    def proc(env):
        fast = env.timeout(10, value="fast")
        slow = env.timeout(30, value="slow")
        seen.append((yield env.first_of(slow, fast)))
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == ["fast", 10]


def test_failure_is_defused_once_delivered():
    env = Environment()
    failing = env.event()
    caught = []

    def proc(env):
        try:
            yield env.first_of(failing, env.timeout(50))
        except KeyError as exc:
            caught.append((env.now, exc.args))

    def trigger(env):
        yield env.timeout(5)
        failing.fail(KeyError("boom"))

    env.process(proc(env))
    env.process(trigger(env))
    env.run()
    assert caught == [(5, ("boom",))]


def test_rejects_events_of_another_environment():
    env, other = Environment(), Environment()
    with pytest.raises(SimulationError):
        FirstOf(env, env.event(), other.event())
