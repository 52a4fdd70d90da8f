"""Tests for Fault/FaultCampaign/FaultEngine (repro.faults.campaign)."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    Fault,
    FaultCampaign,
    FaultEngine,
    Injector,
    RenewalSpec,
    campaign_presets,
    preset_campaign,
)
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import TelemetryBus
from repro.units import MS, SEC


@pytest.fixture
def env():
    return Environment()


class Recorder(Injector):
    """Records (verb, fault, now) tuples for assertion."""

    def __init__(self, kind, env):
        self.kind = kind
        self.env = env
        self.events = []

    def inject(self, fault):
        self.events.append(("inject", fault, self.env.now))

    def clear(self, fault):
        self.events.append(("clear", fault, self.env.now))


class TestFaultValidation:
    def test_valid(self):
        f = Fault("link-degrade", "a.tx", 100, 50, 0.5)
        assert f.end_ns == 150

    def test_empty_kind(self):
        with pytest.raises(FaultError, match="kind"):
            Fault("", "a.tx", 0, 1)

    def test_negative_start(self):
        with pytest.raises(FaultError, match="start"):
            Fault("k", "t", -1, 1)

    def test_zero_duration(self):
        with pytest.raises(FaultError, match="duration"):
            Fault("k", "t", 0, 0)

    def test_severity_out_of_range(self):
        with pytest.raises(FaultError, match="severity"):
            Fault("k", "t", 0, 1, 1.5)


class TestScriptedCampaign:
    def test_canonical_order(self):
        c = FaultCampaign.scripted(
            [
                Fault("b", "t", 200, 10),
                Fault("a", "t", 100, 10),
                Fault("a", "s", 100, 10),
            ]
        )
        assert [(f.start_ns, f.kind, f.target) for f in c.faults] == [
            (100, "a", "s"),
            (100, "a", "t"),
            (200, "b", "t"),
        ]

    def test_overlap_same_hook_rejected(self):
        with pytest.raises(FaultError, match="overlap"):
            FaultCampaign.scripted(
                [Fault("k", "t", 0, 100), Fault("k", "t", 50, 100)]
            )

    def test_overlap_different_target_allowed(self):
        c = FaultCampaign.scripted(
            [Fault("k", "t1", 0, 100), Fault("k", "t2", 50, 100)]
        )
        assert len(c) == 2

    def test_kinds_and_horizon(self):
        c = FaultCampaign.scripted(
            [Fault("b", "t", 0, 10), Fault("a", "t", 5_000, 250)]
        )
        assert c.kinds() == ["a", "b"]
        assert c.horizon_ns() == 5_250
        assert FaultCampaign.scripted([]).horizon_ns() == 0


class TestStochasticCampaign:
    SPECS = [
        RenewalSpec("link-degrade", "a.tx", mtbf_ns=20 * MS, mttr_ns=2 * MS),
        RenewalSpec("ibmon-dropout", "host", mtbf_ns=30 * MS, mttr_ns=5 * MS,
                    severity=0.5),
    ]

    def _build(self, seed):
        rng = RngRegistry(seed).stream("faults/test-campaign")
        return FaultCampaign.stochastic(self.SPECS, int(0.2 * SEC), rng)

    def test_same_seed_same_campaign(self):
        assert self._build(7) == self._build(7)

    def test_different_seed_differs(self):
        assert self._build(7) != self._build(8)

    def test_windows_within_horizon(self):
        c = self._build(7)
        assert len(c) > 0
        assert all(f.end_ns <= int(0.2 * SEC) for f in c.faults)
        assert all(f.duration_ns >= 1 for f in c.faults)

    def test_renewal_spec_validation(self):
        with pytest.raises(FaultError):
            RenewalSpec("k", "t", mtbf_ns=0, mttr_ns=1)


class TestPresets:
    def test_all_presets_build(self):
        for name in campaign_presets():
            c = preset_campaign(name, sim_s=1.0, seed=7)
            assert c.name == name
            assert c.horizon_ns() <= int(1.0 * SEC)

    def test_unknown_preset(self):
        with pytest.raises(FaultError, match="unknown campaign"):
            preset_campaign("nope", sim_s=1.0)

    def test_bad_sim_s(self):
        with pytest.raises(FaultError, match="sim_s"):
            preset_campaign("link-flap", sim_s=0.0)

    def test_random_preset_is_seeded(self):
        a = preset_campaign("random", sim_s=1.0, seed=3)
        b = preset_campaign("random", sim_s=1.0, seed=3)
        c = preset_campaign("random", sim_s=1.0, seed=4)
        assert a == b
        assert a != c


class TestFaultEngine:
    def test_injects_and_clears_on_schedule(self, env):
        camp = FaultCampaign.scripted(
            [Fault("k", "t", 100, 50), Fault("k", "t", 300, 25)]
        )
        rec = Recorder("k", env)
        engine = FaultEngine(env, camp).register(rec)
        engine.start()
        env.run(until=1_000)
        assert [(v, t) for v, _, t in rec.events] == [
            ("inject", 100),
            ("clear", 150),
            ("inject", 300),
            ("clear", 325),
        ]
        assert engine.injected == 2 and engine.cleared == 2
        assert engine.active == []
        assert [(inj, clr) for _, inj, clr in engine.log] == [
            (100, 150),
            (300, 325),
        ]

    def test_active_mid_window(self, env):
        camp = FaultCampaign.scripted([Fault("k", "t", 100, 1_000)])
        engine = FaultEngine(env, camp).register(Recorder("k", env))
        engine.start()
        env.run(until=500)
        assert [f.kind for f in engine.active] == ["k"]

    def test_missing_injector_rejected(self, env):
        camp = FaultCampaign.scripted([Fault("k", "t", 0, 10)])
        engine = FaultEngine(env, camp)
        with pytest.raises(FaultError, match="no injector"):
            engine.start()

    def test_duplicate_injector_rejected(self, env):
        engine = FaultEngine(env, FaultCampaign.scripted([]))
        engine.register(Recorder("k", env))
        with pytest.raises(FaultError, match="duplicate"):
            engine.register(Recorder("k", env))

    def test_double_start_rejected(self, env):
        engine = FaultEngine(env, FaultCampaign.scripted([]))
        engine.start()
        with pytest.raises(FaultError, match="already started"):
            engine.start()

    def test_telemetry_instants(self):
        bus = TelemetryBus()
        env = Environment()
        env.telemetry = bus
        camp = FaultCampaign.scripted([Fault("k", "t", 100, 50, 0.5)])
        FaultEngine(env, camp).register(Recorder("k", env)).start()
        env.run(until=1_000)
        faults = [r for r in bus.records if r.cat == "faults"]
        assert [(r.name, r.ts_ns) for r in faults] == [
            ("inject", 100),
            ("clear", 150),
        ]
        assert dict(faults[0].args)["severity"] == 0.5
