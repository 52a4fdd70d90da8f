"""Unit tests for probes (TimeSeries/ProbeSet) and RNG streams."""

import numpy as np
import pytest

from repro.sim import Environment, ProbeSet, RngRegistry, TimeSeries


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


class TestProbeSet:
    def test_record_uses_sim_time(self):
        env = Environment()
        probes = ProbeSet(env, prefix="vm1")

        ts = probes.ts("latency")

        def proc(env):
            yield env.timeout(100)
            probes.record_all([(ts, 209.0)])

        env.process(proc(env))
        env.run()
        assert ts.name == "vm1.latency"
        assert list(ts.times) == [100]
        assert list(ts.values) == [209.0]

    def test_record_mirrors_to_telemetry_bus(self):
        from repro.telemetry import TelemetryBus

        env = Environment()
        env.telemetry = TelemetryBus()
        probes = ProbeSet(env, prefix="resex")
        probes.record_all([(probes.ts("dom1.cap"), 40.0)])
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
        assert probes.ts("a") is not probes.ts("b")


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
        """Writing through resolved series records each sample on its
        series and mirrors it onto the bus, in the order given, all at
        the current simulation time."""
        from repro.telemetry import TelemetryBus

        env = Environment()
        env.telemetry = TelemetryBus()
        probes = ProbeSet(env, prefix="resex")
        a, b = probes.ts("dom1.cap"), probes.ts("dom1.rate")
        env.run(until=50)
        probes.record_all([(a, 40), (b, 1.5), (a, 30)])
        assert [(r.name, r.ts_ns, r.value) for r in env.telemetry.records] == [
            ("resex.dom1.cap", 50, 40.0),
            ("resex.dom1.rate", 50, 1.5),
            ("resex.dom1.cap", 50, 30.0),
        ]
        assert list(a.times) == [50, 50] and list(a.values) == [40.0, 30.0]
        assert list(b.times) == [50] and list(b.values) == [1.5]
