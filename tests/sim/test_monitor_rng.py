"""Unit tests for probes (TimeSeries/Counter/ProbeSet) and RNG streams."""

import numpy as np
import pytest

from repro.sim import Counter, Environment, ProbeSet, RngRegistry, TimeSeries
from repro.sim.monitor import jitter, sampled_mean


class TestTimeSeries:
    def test_record_and_arrays(self):
        ts = TimeSeries("lat")
        ts.record(0, 1.0)
        ts.record(10, 2.0)
        ts.record(10, 3.0)
        assert len(ts) == 3
        np.testing.assert_array_equal(ts.times, [0, 10, 10])
        np.testing.assert_array_equal(ts.values, [1.0, 2.0, 3.0])

    def test_non_monotonic_rejected(self):
        ts = TimeSeries()
        ts.record(10, 1.0)
        with pytest.raises(ValueError):
            ts.record(5, 2.0)

    def test_array_conversion_is_cached(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        assert ts.times is ts.times
        assert ts.values is ts.values

    def test_cache_invalidated_on_record(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        stale_times, stale_values = ts.times, ts.values
        ts.record(5, 2.0)
        assert ts.times is not stale_times
        np.testing.assert_array_equal(ts.times, [0, 5])
        np.testing.assert_array_equal(ts.values, [1.0, 2.0])
        # The previously handed-out arrays are unchanged.
        np.testing.assert_array_equal(stale_values, [1.0])

    def test_last(self):
        ts = TimeSeries()
        ts.record(3, 7.0)
        assert ts.last() == (3, 7.0)

    def test_last_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries().last()

    def test_window_half_open(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(t, float(t))
        np.testing.assert_array_equal(ts.window(2, 5), [2.0, 3.0, 4.0])

    def test_stats(self):
        ts = TimeSeries()
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            ts.record(i, v)
        assert ts.mean() == pytest.approx(2.5)
        assert ts.std() == pytest.approx(np.std([1, 2, 3, 4]))
        assert ts.percentile(50) == pytest.approx(2.5)

    def test_stats_empty_are_nan(self):
        ts = TimeSeries()
        assert np.isnan(ts.mean())
        assert np.isnan(ts.std())
        assert np.isnan(ts.percentile(99))


class TestCounter:
    def test_add_and_mean(self):
        c = Counter("pkts")
        c.add(10.0)
        c.add(20.0)
        assert c.count == 2
        assert c.total == 30.0
        assert c.mean == 15.0

    def test_mean_empty_is_nan(self):
        assert np.isnan(Counter().mean)


class TestProbeSet:
    def test_record_uses_sim_time(self):
        env = Environment()
        probes = ProbeSet(env, prefix="vm1")

        def proc(env):
            yield env.timeout(100)
            probes.record("latency", 209.0)

        env.process(proc(env))
        env.run()
        ts = probes.ts("latency")
        assert ts.name == "vm1.latency"
        assert ts.last() == (100, 209.0)

    def test_record_mirrors_to_telemetry_bus(self):
        from repro.telemetry import TelemetryBus

        env = Environment()
        env.telemetry = TelemetryBus()
        probes = ProbeSet(env, prefix="resex")
        probes.record("dom1.cap", 40.0)
        counters = env.telemetry.select(kind="counter", cat="resex")
        assert len(counters) == 1
        assert counters[0].name == "resex.dom1.cap"
        assert counters[0].value == 40.0
        # The probe store itself still records (backward-compatible).
        assert len(probes.ts("dom1.cap")) == 1

    def test_same_name_same_series(self):
        env = Environment()
        probes = ProbeSet(env)
        assert probes.ts("a") is probes.ts("a")
        assert probes.counter("c") is probes.counter("c")


class TestHelpers:
    def test_sampled_mean_empty(self):
        assert np.isnan(sampled_mean([]))

    def test_jitter(self):
        assert jitter([5.0, 5.0, 5.0]) == 0.0
        assert jitter([0.0, 2.0]) == pytest.approx(1.0)


class TestRngRegistry:
    def test_streams_are_deterministic(self):
        a = RngRegistry(42).stream("hca").random(5)
        b = RngRegistry(42).stream("hca").random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_name(self):
        reg = RngRegistry(42)
        a = reg.stream("hca").random(5)
        b = reg.stream("client").random(5)
        assert not np.array_equal(a, b)

    def test_stream_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        r1.stream("x")
        a = r1.stream("y").random(3)
        r2 = RngRegistry(7)
        b = r2.stream("y").random(3)  # no prior stream("x")
        np.testing.assert_array_equal(a, b)

    def test_spawn_gives_independent_root(self):
        reg = RngRegistry(1)
        child = reg.spawn("host0")
        a = child.stream("s").random(3)
        b = reg.stream("s").random(3)
        assert not np.array_equal(a, b)

    def test_spawn_deterministic(self):
        a = RngRegistry(1).spawn("host0").stream("s").random(3)
        b = RngRegistry(1).spawn("host0").stream("s").random(3)
        np.testing.assert_array_equal(a, b)

    def test_same_stream_instance_returned(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")


class TestProbeSetRecordAll:
    def test_record_all_matches_record(self):
        """Writing through resolved series records and mirrors exactly
        what the by-name path does, in the same order."""
        from repro.telemetry import TelemetryBus

        def run(by_name: bool):
            env = Environment()
            env.telemetry = TelemetryBus()
            probes = ProbeSet(env, prefix="resex")
            a, b = probes.ts("dom1.cap"), probes.ts("dom1.rate")
            if by_name:
                probes.record("dom1.cap", 40)
                probes.record("dom1.rate", 1.5)
            else:
                probes.record_all([(a, 40), (b, 1.5)])
            return (
                [(r.name, r.ts_ns, r.value) for r in env.telemetry.records],
                [(ts.name, ts.last()) for ts in probes.series.values()],
            )

        assert run(by_name=False) == run(by_name=True)
