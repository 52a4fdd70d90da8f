"""Runtime invariant guards: modes, recording, strict raise, hooks."""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigError, InvariantViolation
from repro.sim import invariants
from repro.sim.core import Environment
from repro.sim.invariants import (
    GUARD_CREDIT_CAP,
    GUARD_EVENT_TIME,
    GUARD_LINK_CAPACITY,
    GUARD_RATE_NONNEGATIVE,
    GUARD_RESO_ACCOUNTING,
    GUARDS,
    NULL_MONITOR,
    InvariantMonitor,
    check_fabric_rates,
)


class TestRegistry:
    def test_all_stack_guards_registered(self):
        for name in (
            GUARD_EVENT_TIME,
            GUARD_RATE_NONNEGATIVE,
            GUARD_LINK_CAPACITY,
            GUARD_RESO_ACCOUNTING,
            GUARD_CREDIT_CAP,
        ):
            assert name in GUARDS
            assert GUARDS[name].description

    def test_guard_names_are_category_dotted(self):
        for name, guard in GUARDS.items():
            assert name.startswith(guard.category + ".")


class TestModes:
    def test_default_is_disabled_null_monitor(self):
        assert invariants.current() is NULL_MONITOR
        assert not NULL_MONITOR.enabled
        assert not NULL_MONITOR.tainted
        NULL_MONITOR.violation(GUARD_EVENT_TIME, 0, "ignored")  # no-op

    def test_record_mode_accumulates_and_taints(self):
        mon = InvariantMonitor("record")
        assert mon.enabled and not mon.tainted
        mon.violation(GUARD_EVENT_TIME, 5, "went backwards", now=7)
        assert mon.tainted
        [v] = mon.to_dicts()
        assert v["guard"] == GUARD_EVENT_TIME
        assert v["category"] == "kernel"
        assert v["ts_ns"] == 5
        assert v["details"] == {"now": 7}

    def test_record_mode_is_bounded(self):
        mon = InvariantMonitor("record", max_records=3)
        for i in range(10):
            mon.violation(GUARD_EVENT_TIME, i, "v")
        assert len(mon.violations) == 3
        assert mon.dropped == 7
        assert mon.tainted

    def test_strict_mode_raises_structured_error(self):
        mon = InvariantMonitor("strict")
        with pytest.raises(InvariantViolation) as exc_info:
            mon.violation(GUARD_RESO_ACCOUNTING, 42, "balance off", domid=3)
        exc = exc_info.value
        assert exc.guard == GUARD_RESO_ACCOUNTING
        assert exc.category == "resex"
        assert exc.ts_ns == 42
        assert exc.details == {"domid": 3}
        assert exc.code == "invariant"
        assert exc.exit_code == 4

    def test_record_mode_mirrors_to_telemetry(self):
        with telemetry.capture() as bus:
            mon = InvariantMonitor("record")
            mon.violation(GUARD_EVENT_TIME, 9, "oops", now=11)
        recs = bus.select(cat="invariant")
        assert len(recs) == 1
        assert recs[0].name == GUARD_EVENT_TIME
        assert recs[0].args_dict()["message"] == "oops"

    def test_monitor_for_mode(self):
        assert invariants.monitor_for_mode("off") is NULL_MONITOR
        assert invariants.monitor_for_mode("record").mode == "record"
        assert invariants.monitor_for_mode("strict").mode == "strict"
        with pytest.raises(ConfigError):
            invariants.monitor_for_mode("chatty")
        with pytest.raises(ConfigError):
            InvariantMonitor("off")

    def test_activate_restores_previous(self):
        assert invariants.current() is NULL_MONITOR
        with invariants.activate("record") as mon:
            assert invariants.current() is mon
            with invariants.activate("strict") as inner:
                assert invariants.current() is inner
            assert invariants.current() is mon
        assert invariants.current() is NULL_MONITOR


class TestFabricCheck:
    class _Link:
        def __init__(self, name):
            self.name = name

    class _Transfer:
        def __init__(self, path):
            self.path = path

    def test_clean_solution_records_nothing(self):
        link = self._Link("l0")
        rates = {self._Transfer((link,)): 5.0, self._Transfer((link,)): 4.0}
        mon = InvariantMonitor("record")
        check_fabric_rates(mon, rates, lambda l: 10.0)
        assert not mon.tainted

    def test_negative_rate_flagged(self):
        link = self._Link("l0")
        mon = InvariantMonitor("record")
        check_fabric_rates(mon, {self._Transfer((link,)): -1.0}, lambda l: 10.0)
        assert any(
            v["guard"] == GUARD_RATE_NONNEGATIVE for v in mon.to_dicts()
        )

    def test_oversubscribed_link_flagged(self):
        link = self._Link("l0")
        rates = {
            self._Transfer((link,)): 8.0,
            self._Transfer((link,)): 7.0,
        }
        mon = InvariantMonitor("record")
        check_fabric_rates(mon, rates, lambda l: 10.0)
        assert any(v["guard"] == GUARD_LINK_CAPACITY for v in mon.to_dicts())

    def test_float_accumulation_slack_tolerated(self):
        link = self._Link("l0")
        rates = {
            self._Transfer((link,)): 10.0 / 3.0,
            self._Transfer((link,)): 10.0 / 3.0,
            self._Transfer((link,)): 10.0 / 3.0,
        }
        mon = InvariantMonitor("record")
        check_fabric_rates(mon, rates, lambda l: 10.0)
        assert not mon.tainted


class TestKernelGuard:
    def test_environment_snapshots_installed_monitor(self):
        with invariants.activate("record") as mon:
            env = Environment()
            assert env.invariants is mon
        assert Environment().invariants is NULL_MONITOR

    def test_healthy_run_stays_clean(self):
        with invariants.activate("strict"):
            env = Environment()

            def proc(env):
                for _ in range(100):
                    yield env.timeout(7)

            env.process(proc(env))
            env.run()
        assert env.events_processed > 100


class TestResoGuard:
    def test_account_operations_stay_clean_in_strict(self):
        from repro.resex.resos import ResoAccount

        with invariants.activate("strict"):
            acct = ResoAccount(1, 1000.0)
            acct.deduct(400.0)
            acct.deduct(700.0)  # floors at zero, tracks unmet demand
            acct.replenish()
        assert acct.unmet_demand == 100.0

    def test_corrupted_balance_is_flagged(self):
        from repro.resex.resos import ResoAccount

        acct = ResoAccount(2, 100.0)
        acct.balance = 150.0  # corrupt the books behind the API
        with invariants.activate("record") as mon:
            acct.deduct(1.0)
        assert any(
            v["guard"] == GUARD_RESO_ACCOUNTING and v["details"]["domid"] == 2
            for v in mon.to_dicts()
        )


class TestGoldenScenarioUnchanged:
    """Guard modes observe; they must never perturb the simulation."""

    def test_strict_mode_is_bit_identical_and_clean(self):
        from repro.experiments import run_scenario

        base = run_scenario("inv-off", sim_s=0.1, seed=3, policy="ioshares")
        with invariants.activate("strict"):
            checked = run_scenario(
                "inv-strict", sim_s=0.1, seed=3, policy="ioshares"
            )
        assert np.array_equal(base.latencies_us, checked.latencies_us)

    def test_record_mode_full_stack_stays_untainted(self):
        from repro.experiments import run_scenario
        from repro.benchex import BenchExConfig

        with invariants.activate("record") as mon:
            run_scenario(
                "inv-record",
                sim_s=0.1,
                seed=5,
                policy="ioshares",
                interferer=BenchExConfig(
                    name="interferer", buffer_bytes=2 * 1024 * 1024
                ),
            )
        assert not mon.tainted, mon.to_dicts()
