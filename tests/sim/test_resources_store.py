"""Unit tests for Resource, PriorityResource, Store, FilterStore."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, FilterStore, PriorityResource, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        res = Resource(env, capacity=2)
        log = []

        def user(env, tag):
            req = res.request()
            yield req
            log.append((tag, env.now))
            yield env.timeout(10)
            req.cancel()

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert log == [("a", 0), ("b", 0)]

    def test_fifo_queueing(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(env, tag, hold):
            with res.request() as req:
                yield req
                log.append((tag, env.now))
                yield env.timeout(hold)

        env.process(user(env, "a", 10))
        env.process(user(env, "b", 10))
        env.process(user(env, "c", 10))
        env.run()
        assert log == [("a", 0), ("b", 10), ("c", 20)]

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(100)

        def impatient(env):
            req = res.request()
            result = yield env.any_of([req, env.timeout(10)])
            if req not in result:
                req.cancel()  # give up
                granted.append("gave-up")
            else:
                granted.append("got-it")
                req.cancel()

        def patient(env):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                granted.append(("patient", env.now))

        env.process(holder(env))
        env.process(impatient(env))
        env.process(patient(env))
        env.run()
        assert "gave-up" in granted
        assert ("patient", 100) in granted

    def test_count_property(self, env):
        res = Resource(env, capacity=3)

        def user(env):
            req = res.request()
            yield req
            yield env.timeout(10)
            req.cancel()

        env.process(user(env))
        env.process(user(env))
        env.run(until=5)
        assert res.count == 2
        env.run()
        assert res.count == 0

    def test_double_release_is_noop(self, env):
        res = Resource(env, capacity=1)

        def user(env):
            req = res.request()
            yield req
            req.cancel()
            req.cancel()  # idempotent

        env.process(user(env))
        env.run()
        assert res.count == 0


class TestPriorityResource:
    def test_priority_ordering(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def holder(env):
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(50)

        def user(env, tag, prio, at):
            yield env.timeout(at)
            with res.request(priority=prio) as req:
                yield req
                log.append(tag)
                yield env.timeout(1)

        env.process(holder(env))
        env.process(user(env, "low", 10, 1))
        env.process(user(env, "high", 1, 2))
        env.process(user(env, "mid", 5, 3))
        env.run()
        assert log == ["high", "mid", "low"]

    def test_fifo_within_same_priority(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def holder(env):
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(50)

        def user(env, tag, at):
            yield env.timeout(at)
            with res.request(priority=3) as req:
                yield req
                log.append(tag)

        env.process(holder(env))
        env.process(user(env, "first", 1))
        env.process(user(env, "second", 2))
        env.run()
        assert log == ["first", "second"]

    def test_cancel_queued_priority_request(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(20)

        def quitter(env):
            yield env.timeout(1)
            req = res.request(priority=0)
            yield env.timeout(5)
            req.cancel()

        def stayer(env):
            yield env.timeout(2)
            with res.request(priority=9) as req:
                yield req
                log.append(env.now)

        env.process(holder(env))
        env.process(quitter(env))
        env.process(stayer(env))
        env.run()
        assert log == [20]


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_item(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env):
            yield env.timeout(25)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [("x", 25)]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("a-in", env.now))
            yield store.put("b")
            log.append(("b-in", env.now))

        def consumer(env):
            yield env.timeout(30)
            item = yield store.get()
            log.append((item, env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("a-in", 0) in log
        assert ("b-in", 30) in log

    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2


class TestFilterStore:
    def test_filter_selects_matching_item(self, env):
        store = FilterStore(env)
        got = []

        def producer(env):
            yield store.put({"id": 1})
            yield store.put({"id": 2})
            yield store.put({"id": 3})

        def consumer(env):
            item = yield store.get(lambda it: it["id"] == 2)
            got.append(item["id"])

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [2]
        assert [it["id"] for it in store.items] == [1, 3]

    def test_filter_blocks_until_match(self, env):
        store = FilterStore(env)
        got = []

        def consumer(env):
            item = yield store.get(lambda it: it > 10)
            got.append((item, env.now))

        def producer(env):
            yield store.put(5)
            yield env.timeout(10)
            yield store.put(50)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(50, 10)]

    def test_unfiltered_get_takes_head(self, env):
        store = FilterStore(env)
        store.put("a")
        store.put("b")
        got = []

        def consumer(env):
            got.append((yield store.get()))

        env.process(consumer(env))
        env.run()
        assert got == ["a"]
