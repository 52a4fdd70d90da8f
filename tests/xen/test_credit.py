"""Tests for the credit scheduler: caps, weights, polling semantics."""

import pytest

from repro.errors import SchedulerError
from repro.sim import Environment
from repro.sim.events import fired
from repro.units import MS, US
from repro.xen.credit import PCPUScheduler
from repro.xen.vcpu import VCPU


@pytest.fixture
def env():
    return Environment()


def make(env, *, cap=100, weight=256, period=10 * MS):
    sched = PCPUScheduler(env, 0, period_ns=period)
    vcpu = VCPU(env, 0, weight=weight, cap_percent=cap)
    sched.attach(vcpu)
    return sched, vcpu


class TestBasicExecution:
    def test_compute_runs_to_completion(self, env):
        _, vcpu = make(env)
        done = []

        def app(env):
            yield vcpu.compute(50 * US)
            done.append(env.now)

        env.process(app(env))
        env.run(until=1 * MS)
        assert done == [50 * US]

    def test_sequential_computes_accumulate(self, env):
        _, vcpu = make(env)
        stamps = []

        def app(env):
            for _ in range(3):
                yield vcpu.compute(10 * US)
                stamps.append(env.now)

        env.process(app(env))
        env.run(until=1 * MS)
        assert stamps == [10 * US, 20 * US, 30 * US]

    def test_cumulative_accounting(self, env):
        _, vcpu = make(env)

        def app(env):
            yield vcpu.compute(100 * US)
            yield vcpu.compute(200 * US)

        env.process(app(env))
        env.run(until=1 * MS)
        assert vcpu.cumulative_ns == 300 * US

    def test_unattached_vcpu_rejects_work(self, env):
        vcpu = VCPU(env, 0)
        with pytest.raises(SchedulerError):
            vcpu.compute(10)

    def test_zero_duration_compute(self, env):
        _, vcpu = make(env)
        done = []

        def app(env):
            yield vcpu.compute(0)
            done.append(env.now)

        env.process(app(env))
        env.run(until=1 * MS)
        assert done == [0]

    def test_negative_duration_rejected(self, env):
        _, vcpu = make(env)
        with pytest.raises(SchedulerError):
            vcpu.compute(-1)


class TestCaps:
    def test_cap_throttles_long_compute(self, env):
        """A 50% capped VCPU takes ~2x wall time for CPU-bound work."""
        _, vcpu = make(env, cap=50)
        done = []

        def app(env):
            yield vcpu.compute(20 * MS)  # needs 4 periods at 50% of 10ms
            done.append(env.now)

        env.process(app(env))
        env.run(until=100 * MS)
        # 20ms of work at 5ms per 10ms period: finishes in the 4th period.
        assert done, "work never completed"
        assert done[0] == pytest.approx(35 * MS, abs=1 * MS)

    def test_cap_10_percent(self, env):
        _, vcpu = make(env, cap=10)

        def app(env):
            yield vcpu.compute(5 * MS)

        p = env.process(app(env))
        env.run(until=p)
        # 5ms at 1ms/period: 5 periods; finishes at 4*10ms + 1ms = 41ms.
        assert env.now == pytest.approx(41 * MS, abs=1 * MS)

    def test_cap_setting_validation(self, env):
        _, vcpu = make(env)
        with pytest.raises(SchedulerError):
            vcpu.cap_percent = 0
        with pytest.raises(SchedulerError):
            vcpu.cap_percent = 101
        vcpu.cap_percent = 1  # minimum legal
        vcpu.cap_percent = 100

    def test_cap_change_mid_run_takes_effect(self, env):
        _, vcpu = make(env, cap=100)

        def app(env):
            yield vcpu.compute(40 * MS)

        def controller(env):
            yield env.timeout(10 * MS)  # after one full-speed period
            vcpu.cap_percent = 50

        p = env.process(app(env))
        env.process(controller(env))
        env.run(until=p)
        # 10ms done in the first period; remaining 30ms at 5ms/period:
        # 6 more periods -> ends at 10ms + 5*10ms + 5ms = 65ms.
        assert env.now == pytest.approx(65 * MS, abs=2 * MS)

    def test_uncapped_work_unaffected_by_period_edges(self, env):
        _, vcpu = make(env, cap=100)

        def app(env):
            yield vcpu.compute(25 * MS)

        p = env.process(app(env))
        env.run(until=p)
        assert env.now == 25 * MS

    def test_capped_vcpu_parks_pcpu_idle(self, env):
        """Cap is not work-conserving: PCPU idles while the VCPU waits."""
        sched, vcpu = make(env, cap=50)

        def app(env):
            yield vcpu.compute(10 * MS)

        p = env.process(app(env))
        env.run(until=p)
        # busy only 10ms out of ~15-20ms elapsed.
        assert sched.busy_ns == 10 * MS
        assert env.now > 14 * MS


class TestWeightedSharing:
    def test_equal_weights_split_evenly(self, env):
        sched = PCPUScheduler(env, 0)
        v1 = VCPU(env, 0, weight=256)
        v2 = VCPU(env, 1, weight=256)
        sched.attach(v1)
        sched.attach(v2)
        finish = {}

        def app(env, vcpu, tag):
            yield vcpu.compute(10 * MS)
            finish[tag] = env.now

        env.process(app(env, v1, "a"))
        env.process(app(env, v2, "b"))
        env.run(until=50 * MS)
        # Both need 10ms CPU, sharing one PCPU: both done ~20ms.
        assert finish["a"] == pytest.approx(20 * MS, abs=2 * MS)
        assert finish["b"] == pytest.approx(20 * MS, abs=2 * MS)

    def test_weight_ratio_respected(self, env):
        sched = PCPUScheduler(env, 0)
        heavy = VCPU(env, 0, weight=512)
        light = VCPU(env, 1, weight=256)
        sched.attach(heavy)
        sched.attach(light)
        finish = {}

        def app(env, vcpu, tag, work):
            yield vcpu.compute(work)
            finish[tag] = env.now

        env.process(app(env, heavy, "heavy", 12 * MS))
        env.process(app(env, light, "light", 12 * MS))
        env.run(until=100 * MS)
        # heavy gets ~2/3 of the CPU while both run: finishes ~18ms.
        assert finish["heavy"] == pytest.approx(18 * MS, abs=2 * MS)
        assert finish["light"] == pytest.approx(24 * MS, abs=2 * MS)

    def test_work_conserving_when_one_idles(self, env):
        sched = PCPUScheduler(env, 0)
        v1 = VCPU(env, 0)
        v2 = VCPU(env, 1)
        sched.attach(v1)
        sched.attach(v2)
        finish = {}

        def busy(env):
            yield v1.compute(10 * MS)
            finish["busy"] = env.now

        env.process(busy(env))
        env.run(until=50 * MS)
        # v2 idle: v1 gets the whole PCPU.
        assert finish["busy"] == 10 * MS


class TestPolling:
    def test_poll_completes_when_event_fires(self, env):
        _, vcpu = make(env)
        result = {}

        def app(env):
            ev = env.event()

            def firer(env):
                yield env.timeout(30 * US)
                ev.succeed()

            env.process(firer(env))
            polled = yield vcpu.poll_until(ev, check_cost_ns=200)
            result["polled"] = polled
            result["at"] = env.now

        env.process(app(env))
        env.run(until=1 * MS)
        # Noticed just after the event fired (+ final check cost).
        assert result["at"] == pytest.approx(30 * US, abs=1 * US)
        # Poll CPU burned is roughly the whole wait.
        assert result["polled"] == pytest.approx(30 * US, abs=1 * US)

    def test_poll_on_already_fired_event_costs_one_check(self, env):
        _, vcpu = make(env)
        result = {}

        def app(env):
            ev = env.event()
            ev.succeed()
            yield env.timeout(10 * US)
            polled = yield vcpu.poll_until(ev, check_cost_ns=200)
            result["polled"] = polled
            result["at"] = env.now

        env.process(app(env))
        env.run(until=1 * MS)
        assert result["polled"] == 200
        assert result["at"] == 10 * US + 200

    def test_capped_vcpu_notices_completion_late(self, env):
        """A parked (capped-out) VCPU cannot observe a CQE until it is
        scheduled again — the PTime inflation mechanism."""
        _, vcpu = make(env, cap=10)  # 1ms budget per 10ms period
        result = {}

        def app(env):
            # Burn the period budget first.
            yield vcpu.compute(1 * MS)
            ev = env.event()

            def firer(env):
                yield env.timeout(2 * MS)  # fires while vcpu is parked
                ev.succeed()

            env.process(firer(env))
            yield vcpu.poll_until(ev)
            result["at"] = env.now

        env.process(app(env))
        env.run(until=100 * MS)
        # Event at 2ms, but vcpu parked until the next period at 10ms.
        assert result["at"] >= 10 * MS

    def test_poll_cpu_time_counts_toward_cap(self, env):
        _, vcpu = make(env, cap=50)

        def app(env):
            ev = env.event()  # never fires: poll forever
            yield vcpu.poll_until(ev)

        env.process(app(env))
        env.run(until=40 * MS)
        # Polled 50% of 40ms.
        assert vcpu.cumulative_ns == pytest.approx(20 * MS, rel=0.1)

    def test_poll_on_a_pending_timeout_waits_for_it(self, env):
        """A Timeout holds its value from creation; the poll must still
        run until its time comes, then pay the final check."""
        _, vcpu = make(env)
        result = {}

        def app(env):
            polled = yield vcpu.poll_until(env.timeout(50 * US), check_cost_ns=200)
            result["polled"] = polled
            result["at"] = env.now

        env.process(app(env))
        env.run(until=1 * MS)
        assert result == {"polled": 50 * US + 200, "at": 50 * US + 200}

    def test_poll_on_a_timeout_due_now_costs_one_check(self, env):
        _, vcpu = make(env)
        result = {}

        def app(env):
            polled = yield vcpu.poll_until(env.timeout(0), check_cost_ns=200)
            result["polled"] = polled
            result["at"] = env.now

        env.process(app(env))
        env.run(until=1 * MS)
        assert result == {"polled": 200, "at": 200}

    def test_fired_reads_a_timeouts_due_time(self, env):
        later, now, event = env.timeout(5), env.timeout(0), env.event()
        assert (fired(later), fired(now), fired(event)) == (False, True, False)
        event.succeed()
        assert fired(event)
        env.run(until=4)
        assert not fired(later)
        env.run(until=5)
        assert fired(later)

    def test_invalid_check_cost(self, env):
        _, vcpu = make(env)
        with pytest.raises(SchedulerError):
            vcpu.poll_until(env.event(), check_cost_ns=0)


class TestSchedulerConfig:
    def test_invalid_period(self, env):
        with pytest.raises(SchedulerError):
            PCPUScheduler(env, 0, period_ns=0)

    def test_quantum_gt_period_rejected(self, env):
        with pytest.raises(SchedulerError):
            PCPUScheduler(env, 0, period_ns=1 * MS, quantum_ns=2 * MS)

    def test_double_attach_rejected(self, env):
        sched, vcpu = make(env)
        other = PCPUScheduler(env, 1)
        with pytest.raises(SchedulerError):
            other.attach(vcpu)

    def test_utilization_stat(self, env):
        sched, vcpu = make(env)

        def app(env):
            yield vcpu.compute(5 * MS)

        env.process(app(env))
        env.run(until=10 * MS)
        assert sched.utilization(10 * MS) == pytest.approx(0.5)
        assert sched.utilization(0) == 0.0
