"""End-to-end chaos runs: determinism, policy resilience, CLI."""

import json

import numpy as np
import pytest

from repro.benchex import BenchExConfig
from repro.experiments import run_chaos_scenario, sweep_chaos
from repro.resex import LatencySLA
from repro.telemetry import TelemetryBus
from repro.units import SEC, KiB


class TestDeterminism:
    def test_identical_reports_for_fixed_seed(self):
        """Two `repro chaos fig9 --campaign link-flap --seed 7` runs
        render byte-identical resilience reports."""
        runs = [
            run_chaos_scenario("fig9", campaign="link-flap",
                               sim_s=0.5, seed=7)
            for _ in range(2)
        ]
        assert runs[0].report.render() == runs[1].report.render()
        # json round-trip: NaN fields compare as identical tokens.
        assert json.dumps(runs[0].report.to_dict()) == json.dumps(
            runs[1].report.to_dict()
        )
        assert np.array_equal(
            runs[0].scenario.latencies_us, runs[1].scenario.latencies_us
        )


class TestPolicyResilience:
    """The acceptance property: under a 50%-capacity degradation of the
    contended link, IOShares re-enters the +10% band of its pre-fault
    baseline while StaticRatio stays out until the link heals."""

    #: A 256 KiB interferer: StaticRatio's buffer-ratio rule caps it at
    #: only 25% CPU, while IOShares can squelch it to the floor.
    INTERFERER = BenchExConfig(name="intf", buffer_bytes=256 * KiB)
    #: Lenient SLA: the controller tolerates the interferer pre-fault,
    #: so the pre-fault baseline reflects managed coexistence.
    SLA = LatencySLA(base_mean_us=209.0, base_std_us=3.0, threshold_pct=30.0)

    def _run(self, policy):
        from repro.faults import Fault, FaultCampaign

        campaign = FaultCampaign.scripted(
            [Fault("link-degrade", "server-host.tx",
                   int(0.5 * SEC), int(1.0 * SEC), 0.5)],
            name="half-capacity",
        )
        return run_chaos_scenario(
            "policy-resilience",
            campaign=campaign,
            sim_s=1.5,
            seed=7,
            interferer=self.INTERFERER,
            policy=policy,
            sla=self.SLA,
        )

    def test_ioshares_recovers_static_ratio_does_not(self):
        io = self._run("ioshares").impacts[0]
        st = self._run("static-ratio").impacts[0]

        # IOShares re-enters the band mid-window by squelching the
        # interferer; its during-mean sits near the victim-alone floor.
        assert io.recovered
        assert io.ttr_ns < int(0.6 * SEC)
        assert io.during_us < io.baseline_us * 1.10

        # StaticRatio's fixed cap cannot adapt: latency never returns
        # to within 10% of its pre-fault baseline before the run ends.
        assert not st.recovered
        assert st.during_us > st.baseline_us * 1.10


class TestInjectedBehaviour:
    def test_hca_faults_raise_victim_latency(self):
        from repro.faults import Fault, FaultCampaign

        campaign = FaultCampaign.scripted(
            [
                Fault("hca-doorbell-stall", "server-host",
                      int(0.15 * SEC), int(0.10 * SEC), 1.0),
                Fault("hca-cqe-delay", "server-host",
                      int(0.30 * SEC), int(0.10 * SEC), 1.0),
            ],
            name="hca-faults",
        )
        chaos = run_chaos_scenario("base", campaign=campaign,
                                   sim_s=0.5, seed=7)
        stall, cqe = chaos.impacts
        # The 100 us doorbell stall lands in full on every cycle; the
        # completion delay partly overlaps the next receive, so its
        # visible share is smaller.  Both heal once cleared.
        assert stall.during_us > stall.baseline_us * 1.3
        assert cqe.during_us > cqe.baseline_us * 1.15
        assert chaos.report.recovered_all

    def test_monitor_and_controller_faults(self):
        from repro.faults import Fault, FaultCampaign

        campaign = FaultCampaign.scripted(
            [
                Fault("ibmon-dropout", "server-host",
                      int(0.10 * SEC), int(0.08 * SEC)),
                Fault("ibmon-stale", "server-host",
                      int(0.20 * SEC), int(0.08 * SEC)),
                Fault("controller-outage", "server-host",
                      int(0.30 * SEC), int(0.08 * SEC)),
            ],
            name="mgmt-faults",
        )
        chaos = run_chaos_scenario("fig9", campaign=campaign,
                                   sim_s=0.45, seed=7)
        ibmon = chaos.engine.injectors["ibmon-dropout"].ibmon
        controller = chaos.engine.injectors["controller-outage"].controller
        assert ibmon.samples_dropped > 0
        assert not ibmon.fault_drop_samples  # cleared again
        assert controller.intervals_skipped > 0
        assert not controller.paused
        assert chaos.engine.injected == 3 and chaos.engine.cleared == 3

    def test_fault_track_in_telemetry(self):
        bus = TelemetryBus()
        chaos = run_chaos_scenario("base", campaign="link-flap",
                                   sim_s=0.4, seed=7, telemetry=bus)
        faults = [r for r in bus.records if r.cat == "faults"]
        names = [r.name for r in faults]
        assert names.count("inject") == 3
        assert names.count("clear") == 3
        # Post-run recovery instants were appended for healed windows.
        assert names.count("recover") == sum(
            1 for i in chaos.impacts if i.recovered
        ) > 0


class TestReplicateChaos:
    def test_seed_sweep_reproducible_with_finite_ci(self):
        seeds = (3, 5)
        kwargs = dict(campaign="link-flap", sim_s=0.4)
        a = sweep_chaos("base", seeds, **kwargs)[0]
        b = sweep_chaos("base", seeds, **kwargs)[0]
        assert set(a) == {"excursion_us_s", "worst_ttr_ms", "recovered"}
        for metric in a:
            assert a[metric].values == b[metric].values  # reproducible
        exc = a["excursion_us_s"]
        assert np.isfinite(exc.ci95_halfwidth())
        assert exc.mean > 0.0
        assert a["recovered"].minimum == 1.0  # flaps heal on this bed

    def test_requires_seeds(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            sweep_chaos("base", (), campaign="link-flap")


class TestChaosCli:
    def test_dry_run_prints_schedule(self, capsys):
        from repro.cli import main

        assert main(["chaos", "fig9", "--campaign", "link-flap",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "campaign schedule (3 faults)" in out
        assert "link-degrade" in out and "server-host.tx" in out

    def test_json_report(self, capsys):
        from repro.cli import main

        assert main(["-q", "chaos", "base", "--campaign", "link-flap",
                     "--seed", "7", "--sim-s", "0.3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["campaign"] == "link-flap"
        assert len(doc["impacts"]) == 3

    def test_unknown_scenario_exits_with_config_code(self, capsys):
        from repro.cli import main
        from repro.errors import ConfigError

        assert main(["chaos", "nope", "--dry-run", "--sim-s", "0.1"]) == \
            ConfigError.exit_code
        err = capsys.readouterr().err
        assert "unknown chaos scenario" in err and "[config]" in err
