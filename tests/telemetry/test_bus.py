"""Telemetry bus semantics: disabled no-op default and determinism."""

import pytest

from repro import telemetry
from repro.sim import Environment
from repro.telemetry import NULL_BUS, TelemetryBus
from repro.telemetry.bus import COUNTER, INSTANT, SPAN


class TestDisabledByDefault:
    def test_fresh_environment_gets_null_bus(self):
        env = Environment()
        assert env.telemetry is NULL_BUS
        assert env.telemetry.enabled is False

    def test_null_bus_emits_nothing(self):
        NULL_BUS.span("cat", "name", 0, 10)
        NULL_BUS.instant("cat", "name", 0)
        NULL_BUS.counter("cat", "name", 0, 1.0)
        NULL_BUS.kernel_tick(0, 1, 0, None)
        NULL_BUS.kernel_resume(0, "p")
        assert len(NULL_BUS) == 0
        assert NULL_BUS.categories() == []
        assert NULL_BUS.select() == []

    def test_untraced_simulation_records_nothing(self):
        env = Environment()

        def proc(env):
            yield env.timeout(10)
            yield env.timeout(10)

        env.process(proc(env))
        env.run()
        assert len(env.telemetry) == 0

    def test_probes_do_not_touch_null_bus(self):
        from repro.sim.monitor import ProbeSet

        env = Environment()
        probes = ProbeSet(env, prefix="x")
        a = probes.ts("a")
        probes.record_all([(a, 1.0)])
        assert len(env.telemetry) == 0
        assert len(a) == 1


class TestCaptureInstall:
    def test_capture_installs_and_restores(self):
        assert telemetry.current() is NULL_BUS
        with telemetry.capture() as bus:
            assert telemetry.current() is bus
            env = Environment()
            assert env.telemetry is bus
        assert telemetry.current() is NULL_BUS

    def test_capture_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry.capture():
                raise RuntimeError("boom")
        assert telemetry.current() is NULL_BUS

    def test_environment_snapshot_of_installed_bus(self):
        # An environment created inside a capture keeps its bus even
        # after the capture exits (it is the run's recording).
        with telemetry.capture() as bus:
            env = Environment()
        assert env.telemetry is bus


class TestRecording:
    def test_span_instant_counter_kinds(self):
        bus = TelemetryBus()
        bus.span("hca", "SEND", 100, 250, qp_num=3)
        bus.instant("resex", "decision", 300, domid=1)
        bus.counter("kernel", "queue_depth", 400, 7)
        kinds = [r.kind for r in bus.records]
        assert kinds == [SPAN, INSTANT, COUNTER]
        span = bus.records[0]
        assert span.ts_ns == 100 and span.dur_ns == 150
        assert span.args_dict() == {"qp_num": 3}
        assert bus.records[2].value == 7.0

    def test_lane_defaults_to_category(self):
        bus = TelemetryBus()
        bus.instant("credit", "period", 0)
        bus.instant("credit", "period", 0, lane="pcpu1")
        assert bus.records[0].lane == "credit"
        assert bus.records[1].lane == "pcpu1"

    def test_select_and_categories(self):
        bus = TelemetryBus()
        bus.span("a", "s", 0, 1)
        bus.instant("b", "i", 2)
        bus.span("a", "s2", 3, 4)
        assert bus.categories() == ["a", "b"]
        assert len(bus.select(kind=SPAN)) == 2
        assert len(bus.select(cat="b")) == 1
        assert len(bus.select(kind=SPAN, cat="b")) == 0

    def test_kernel_sampling_cadence(self):
        bus = TelemetryBus(kernel_sample_every=2)
        env = Environment()
        env.telemetry = bus

        def proc(env):
            for _ in range(6):
                yield env.timeout(1)

        env.process(proc(env))
        env.run()
        counters = bus.select(kind=COUNTER, cat="kernel")
        # Every 2nd processed event emits queue_depth + events_processed.
        assert len(counters) >= 2
        assert len(counters) % 2 == 0
        names = {c.name for c in counters}
        assert names == {"queue_depth", "events_processed"}

    def test_kernel_dispatch_firehose(self):
        bus = TelemetryBus(kernel_dispatch=True)
        env = Environment()
        env.telemetry = bus

        def proc(env):
            yield env.timeout(5)

        env.process(proc(env), name="worker")
        env.run()
        instants = bus.select(kind=INSTANT, cat="kernel")
        assert any(r.lane == "dispatch" for r in instants)
        resumes = [r for r in instants if r.name == "resume"]
        assert any(r.args_dict().get("process") == "worker" for r in resumes)


def _run_traced_scenario(seed=11):
    from repro.benchex import BenchExConfig
    from repro.experiments import run_scenario
    from repro.units import KiB

    bus = TelemetryBus()
    run_scenario(
        "determinism",
        interferer=BenchExConfig(name="intf", buffer_bytes=512 * KiB),
        policy="ioshares",
        sim_s=0.05,
        seed=seed,
        telemetry=bus,
    )
    return bus


class TestDeterminism:
    def test_two_seeded_runs_identical_records(self):
        """Span nesting and record order are reproducible end to end."""
        a = _run_traced_scenario()
        b = _run_traced_scenario()
        assert len(a.records) > 100
        assert a.records == b.records

    def test_all_layers_emit(self):
        bus = _run_traced_scenario()
        cats = set(bus.categories())
        assert {
            "kernel",
            "credit",
            "hca",
            "fabric",
            "ibmon",
            "resex",
            "benchex",
        } <= cats
        span_layers = {r.cat for r in bus.select(kind=SPAN)}
        assert {"credit", "hca", "fabric", "ibmon", "resex", "benchex"} <= span_layers

    def test_spans_nest_within_parents(self):
        """BenchEx component spans tile their request span exactly."""
        bus = _run_traced_scenario()
        benchex = bus.select(kind=SPAN, cat="benchex")
        requests = [r for r in benchex if r.name == "request"]
        assert requests
        parts = {
            name: [r for r in benchex if r.name == name]
            for name in ("PTime", "CTime", "WTime")
        }
        first = requests[0]
        window = [
            r
            for rs in parts.values()
            for r in rs
            if r.lane == first.lane
            and first.ts_ns <= r.ts_ns
            and r.ts_ns + r.dur_ns <= first.ts_ns + first.dur_ns
        ]
        assert sum(r.dur_ns for r in window) == first.dur_ns
