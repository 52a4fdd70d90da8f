"""Unit tests for the DES kernel: Environment, events, processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import INFINITY, Environment, Interrupt
from repro.units import MS, US


@pytest.fixture
def env():
    return Environment()


class TestPeekInfinity:
    def test_empty_queue_peeks_infinity(self, env):
        assert env.peek() == INFINITY

    def test_infinity_is_int64_max(self):
        assert INFINITY == 2**63 - 1

    def test_peek_returns_next_event_time(self, env):
        env.timeout(30)
        env.timeout(10)
        assert env.peek() == 10
        env.run()
        assert env.peek() == INFINITY


class TestEnvironmentBasics:
    def test_initial_time_zero(self, env):
        assert env.now == 0

    def test_initial_time_custom(self):
        assert Environment(initial_time=42).now == 42

    def test_run_empty_queue_returns_none(self, env):
        assert env.run() is None

    def test_run_until_past_raises(self):
        env = Environment(initial_time=100)
        with pytest.raises(SimulationError):
            env.run(until=50)

    def test_events_processed_counter(self, env):
        env.timeout(5)
        env.timeout(7)
        env.run()
        assert env.events_processed == 2


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(10 * US)
            assert env.now == 10 * US
            yield env.timeout(5 * US)
            assert env.now == 15 * US

        env.process(proc(env))
        env.run()
        assert env.now == 15 * US

    def test_timeout_zero_is_legal(self, env):
        log = []

        def proc(env):
            yield env.timeout(0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [0]

    def test_negative_timeout_raises(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(3, value="payload")
            assert got == "payload"

        env.process(proc(env))
        env.run()

    def test_timeouts_fire_in_order(self, env):
        log = []

        def waiter(env, delay, tag):
            yield env.timeout(delay)
            log.append(tag)

        env.process(waiter(env, 30, "c"))
        env.process(waiter(env, 10, "a"))
        env.process(waiter(env, 20, "b"))
        env.run()
        assert log == ["a", "b", "c"]

    def test_same_time_fifo_order(self, env):
        log = []

        def waiter(env, tag):
            yield env.timeout(10)
            log.append(tag)

        for tag in "abcd":
            env.process(waiter(env, tag))
        env.run()
        assert log == ["a", "b", "c", "d"]


class TestRunUntil:
    def test_run_until_time_stops_clock(self, env):
        def proc(env):
            while True:
                yield env.timeout(10)

        env.process(proc(env))
        env.run(until=105)
        assert env.now == 105

    def test_run_until_time_runs_simultaneous_events_first(self, env):
        log = []

        def proc(env):
            yield env.timeout(100)
            log.append("at-100")

        env.process(proc(env))
        env.run(until=100)
        assert log == ["at-100"]

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(7)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 7

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()
        env.timeout(5)
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_run_until_already_processed_event(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == 99


class TestRunAfterRaise:
    """A run that raised must not leave its stop behind for the next."""

    @staticmethod
    def _program(env):
        ticks = []

        def ticker(env):
            while True:
                yield env.timeout(25)
                ticks.append(env.now)

        def failing(env):
            yield env.timeout(60)
            raise RuntimeError("boom")

        env.process(ticker(env))
        env.process(failing(env))
        return ticks

    def test_run_until_time_after_a_raise_runs_to_the_new_time(self, env):
        ticks = self._program(env)
        with pytest.raises(RuntimeError):
            env.run(until=100)
        assert env.now == 60
        env.run(until=200)
        assert env.now == 200
        assert ticks == [25, 50, 75, 100, 125, 150, 175, 200]
        # 2 process starts, 8 ticks, the failing process's timeout and
        # its failure; the stop events are never counted.
        assert env.events_processed == 12
        assert env.peek() == 225

    def test_run_until_event_after_a_raise_does_not_stop_on_it(self, env):
        ticks = self._program(env)
        done = env.event()

        def finisher(env):
            yield env.timeout(150)
            done.succeed("late")

        env.process(finisher(env))
        with pytest.raises(RuntimeError):
            env.run(until=done)
        assert env.now == 60
        env.run(until=200)
        assert env.now == 200
        assert ticks == [25, 50, 75, 100, 125, 150, 175, 200]
        # ... plus the finisher's start, its timeout, ``done`` and its
        # exit.
        assert env.events_processed == 16
        assert done.processed and done.value == "late"

    def test_run_after_an_until_event_that_never_fired(self, env):
        done = env.event()
        with pytest.raises(SimulationError):
            env.run(until=done)
        done.succeed()
        env.timeout(10)
        env.run()
        assert (env.now, env.events_processed) == (10, 2)


class TestEventSemantics:
    def test_succeed_once_only(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_event_wakes_waiter_with_value(self, env):
        ev = env.event()
        got = []

        def waiter(env):
            got.append((yield ev))

        def trigger(env):
            yield env.timeout(4)
            ev.succeed("hello")

        env.process(waiter(env))
        env.process(trigger(env))
        env.run()
        assert got == ["hello"]

    def test_failed_event_raises_in_waiter(self, env):
        ev = env.event()
        caught = []

        def waiter(env):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def trigger(env):
            yield env.timeout(1)
            ev.fail(ValueError("boom"))

        env.process(waiter(env))
        env.process(trigger(env))
        env.run()
        assert caught == ["boom"]

    def test_unhandled_event_failure_propagates_to_run(self, env):
        ev = env.event()

        def trigger(env):
            yield env.timeout(1)
            ev.fail(RuntimeError("unhandled"))

        env.process(trigger(env))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_multiple_waiters_all_wake(self, env):
        ev = env.event()
        woke = []

        def waiter(env, tag):
            yield ev
            woke.append(tag)

        for tag in range(5):
            env.process(waiter(env, tag))
        ev.succeed()
        env.run()
        assert woke == [0, 1, 2, 3, 4]


class TestProcess:
    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 123

        p = env.process(proc(env))
        env.run()
        assert p.value == 123
        assert not p.is_alive

    def test_process_failure_propagates_if_unwatched(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("dead")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_process_failure_caught_by_watcher(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("dead")

        caught = []

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                caught.append(True)

        env.process(parent(env))
        env.run()
        assert caught == [True]

    def test_waiting_on_finished_process(self, env):
        def child(env):
            yield env.timeout(1)
            return "done"

        def parent(env, child_proc):
            yield env.timeout(50)
            value = yield child_proc
            assert value == "done"
            assert env.now == 50

        c = env.process(child(env))
        env.process(parent(env, c))
        env.run()

    def test_yield_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_cross_environment_yield_fails(self, env):
        other = Environment()

        def proc(env):
            yield other.timeout(1)

        env.process(proc(env))
        with pytest.raises(SimulationError, match="different environment"):
            env.run()

    def test_process_name(self, env):
        def my_proc(env):
            yield env.timeout(1)

        p = env.process(my_proc(env), name="worker-1")
        assert p.name == "worker-1"
        assert "worker-1" in repr(p)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                causes.append(intr.cause)
                assert env.now == 10

        def attacker(env, v):
            yield env.timeout(10)
            v.interrupt(cause="preempt")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert causes == ["preempt"]

    def test_interrupted_timeout_can_be_reawaited(self, env):
        log = []

        def victim(env):
            to = env.timeout(100)
            try:
                yield to
            except Interrupt:
                log.append(("interrupted", env.now))
            yield to  # original timeout still fires at t=100
            log.append(("resumed", env.now))

        def attacker(env, v):
            yield env.timeout(40)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [("interrupted", 40), ("resumed", 100)]

    def test_interrupt_dead_process_raises(self, env):
        def victim(env):
            yield env.timeout(1)

        v = env.process(victim(env))
        env.run()
        with pytest.raises(SimulationError):
            v.interrupt()

    def test_self_interrupt_raises(self, env):
        failures = []

        def proc(env):
            p = env.active_process
            try:
                p.interrupt()
            except SimulationError:
                failures.append(True)
            yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert failures == [True]

    def test_uncaught_interrupt_kills_process(self, env):
        def victim(env):
            yield env.timeout(100)

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        with pytest.raises(Interrupt):
            env.run()


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc(env):
            t1 = env.timeout(10, value="a")
            t2 = env.timeout(30, value="b")
            result = yield env.all_of([t1, t2])
            assert env.now == 30
            assert result[t1] == "a"
            assert result[t2] == "b"

        env.process(proc(env))
        env.run()

    def test_any_of_returns_on_first(self, env):
        def proc(env):
            t1 = env.timeout(10, value="fast")
            t2 = env.timeout(30, value="slow")
            result = yield env.any_of([t1, t2])
            assert env.now == 10
            assert t1 in result
            assert t2 not in result

        env.process(proc(env))
        env.run()

    def test_all_of_empty_triggers_immediately(self, env):
        def proc(env):
            result = yield env.all_of([])
            assert len(result) == 0
            assert env.now == 0

        env.process(proc(env))
        env.run()

    def test_any_of_empty_triggers_immediately(self, env):
        def proc(env):
            yield env.any_of([])
            assert env.now == 0

        env.process(proc(env))
        env.run()

    def test_condition_propagates_failure(self, env):
        ev = env.event()

        def trigger(env):
            yield env.timeout(5)
            ev.fail(ValueError("cond-fail"))

        caught = []

        def waiter(env):
            try:
                yield env.all_of([ev, env.timeout(100)])
            except ValueError:
                caught.append(True)

        env.process(trigger(env))
        env.process(waiter(env))
        env.run()
        assert caught == [True]

    def test_condition_with_already_processed_event(self, env):
        def proc(env):
            t = env.timeout(1, value="x")
            yield t
            # t is processed now; condition must still work.
            result = yield env.all_of([t, env.timeout(2, value="y")])
            assert result[t] == "x"

        env.process(proc(env))
        env.run()

    def test_mixing_environments_raises(self, env):
        other = Environment()

        def proc(env):
            yield env.all_of([env.timeout(1), other.timeout(1)])

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def make_trace():
            env = Environment()
            trace = []

            def worker(env, tag, period):
                while env.now < 1 * MS:
                    yield env.timeout(period)
                    trace.append((env.now, tag))

            env.process(worker(env, "x", 7 * US))
            env.process(worker(env, "y", 11 * US))
            env.process(worker(env, "z", 13 * US))
            env.run(until=1 * MS)
            return trace

        assert make_trace() == make_trace()
