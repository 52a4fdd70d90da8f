"""Integration tests: the full ResEx control loop over live workloads."""

import numpy as np
import pytest

from repro.benchex import INTERFERER_2MB, BenchExConfig, BenchExPair, run_pairs
from repro.errors import PricingError
from repro.experiments.platform import Testbed
from repro.resex import (
    FreeMarket,
    IOShares,
    LatencySLA,
    NoOpPolicy,
    ResExController,
    StaticRatio,
)
from repro.units import SEC

SLA = LatencySLA(base_mean_us=209.0, base_std_us=3.0, threshold_pct=10.0)


def scenario(policy, sim_s=1.5, seed=2, with_interferer=True):
    """Victim + optional 2MB interferer under the given policy."""
    bed = Testbed.paper_testbed(seed=seed)
    s, c = bed.node("server-host"), bed.node("client-host")
    rep = BenchExPair(
        bed, s, c, BenchExConfig(name="rep", warmup_requests=100), with_agent=True
    )
    pairs = [rep]
    intf = None
    if with_interferer:
        intf = BenchExPair(bed, s, c, INTERFERER_2MB)
        pairs.append(intf)
    ctl = None
    if policy is not None:
        ctl = ResExController(s, policy)
        ctl.monitor(rep.server_dom, agent=rep.agent, sla=SLA)
        if intf is not None:
            ctl.monitor(intf.server_dom)
        ctl.start()
    run_pairs(bed, pairs, until_ns=int(sim_s * SEC))
    return bed, rep, intf, ctl


class TestControllerMechanics:
    def test_requires_vms(self):
        bed = Testbed.paper_testbed(seed=1)
        ctl = ResExController(bed.node("server-host"), NoOpPolicy())
        with pytest.raises(PricingError):
            ctl.start()

    def test_agent_requires_sla(self):
        bed = Testbed.paper_testbed(seed=1)
        s = bed.node("server-host")
        dom = s.create_guest("vm")
        from repro.benchex.reporting import LatencyAgent

        ctl = ResExController(s, NoOpPolicy())
        with pytest.raises(PricingError, match="SLA"):
            ctl.monitor(dom, agent=LatencyAgent(dom.domid))

    def test_duplicate_monitor_rejected(self):
        bed = Testbed.paper_testbed(seed=1)
        s = bed.node("server-host")
        dom = s.create_guest("vm")
        ctl = ResExController(s, NoOpPolicy())
        ctl.monitor(dom)
        with pytest.raises(PricingError, match="already"):
            ctl.monitor(dom)

    def test_no_monitor_after_start(self):
        bed = Testbed.paper_testbed(seed=1)
        s = bed.node("server-host")
        ctl = ResExController(s, NoOpPolicy())
        ctl.monitor(s.create_guest("vm1"))
        ctl.start()
        with pytest.raises(PricingError, match="after"):
            ctl.monitor(s.create_guest("vm2"))

    def test_interval_and_epoch_cadence(self):
        _, _, _, ctl = scenario(NoOpPolicy(), sim_s=2.1)
        # ~2100 intervals and 2 epochs in 2.1 s.
        assert ctl.intervals_run == pytest.approx(2100, abs=10)
        assert ctl.epochs_run == 2

    def test_accounts_replenish_each_epoch(self):
        _, _, intf, ctl = scenario(FreeMarket(), sim_s=2.2)
        acc = ctl.vm_by_domid(intf.server_dom.domid).account
        assert acc.epochs_replenished == 2

    def test_probes_recorded(self):
        _, rep, intf, ctl = scenario(NoOpPolicy(), sim_s=1.2)
        for dom in (rep.server_dom, intf.server_dom):
            caps = ctl.probes.series[f"resex.dom{dom.domid}.cap"]
            assert len(caps) == ctl.intervals_run


class TestFreeMarketBehaviour:
    def test_interferer_account_depletes(self):
        """Fig. 6: the 2MB VM burns its Resos well before the epoch ends."""
        _, _, intf, ctl = scenario(FreeMarket(), sim_s=1.0)
        balances = ctl.probes.series[
            f"resex.dom{intf.server_dom.domid}.resos"
        ].values
        assert balances.min() < balances.max() * 0.05

    def test_victim_account_survives(self):
        """The 64KB VM's demand fits its allocation: no depletion capping."""
        _, rep, _, ctl = scenario(FreeMarket(), sim_s=1.0)
        caps = ctl.probes.series[f"resex.dom{rep.server_dom.domid}.cap"].values
        assert caps.min() == 100

    def test_rated_capping_walks_down_gradually(self):
        """Fig. 5/6: the cap steps down by the decrement, no cliff to 0."""
        _, _, intf, ctl = scenario(FreeMarket(), sim_s=1.0)
        caps = ctl.probes.series[f"resex.dom{intf.server_dom.domid}.cap"].values
        drops = np.diff(caps)
        assert drops.min() >= -10  # never falls faster than the decrement
        assert caps.min() == 10  # reaches the floor, not zero

    def test_cap_restored_at_epoch(self):
        _, _, intf, ctl = scenario(FreeMarket(), sim_s=2.2)
        caps = ctl.probes.series[f"resex.dom{intf.server_dom.domid}.cap"]
        # Find a sample right after the second epoch boundary.
        t, v = caps.times, caps.values
        after_epoch = v[(t > 1.0 * SEC) & (t < 1.05 * SEC)]
        assert after_epoch.max() == 100

    def test_freemarket_improves_on_interfered(self):
        """Fig. 5: FreeMarket's latency sits below the interfered case."""
        _, rep_none, _, _ = scenario(None, sim_s=2.5)
        _, rep_fm, _, _ = scenario(FreeMarket(), sim_s=2.5)
        assert (
            rep_fm.server.latencies_us().mean()
            < rep_none.server.latencies_us().mean() - 15.0
        )


class TestIOSharesBehaviour:
    def test_near_base_latency(self):
        """Fig. 7: IOShares brings the victim near the base case."""
        _, rep, _, _ = scenario(IOShares(), sim_s=1.5)
        mean = rep.server.latencies_us().mean()
        assert mean < 245.0  # interfered is ~315, base ~209

    def test_headline_claim_30_percent(self):
        """Abstract: 'reduce the latency interference by as much as 30%'."""
        _, rep_none, _, _ = scenario(None, sim_s=1.5)
        _, rep_ios, _, _ = scenario(IOShares(), sim_s=1.5)
        interfered = rep_none.server.latencies_us().mean()
        managed = rep_ios.server.latencies_us().mean()
        reduction = (interfered - managed) / interfered
        assert reduction > 0.20

    def test_interferer_rate_rises_and_cap_falls(self):
        _, _, intf, ctl = scenario(IOShares(), sim_s=1.0)
        tag = f"resex.dom{intf.server_dom.domid}"
        rates = ctl.probes.series[f"{tag}.rate"].values
        caps = ctl.probes.series[f"{tag}.cap"].values
        assert rates.max() > 1.0
        assert caps.min() < 20

    def test_victim_never_congestion_capped(self):
        _, rep, _, ctl = scenario(IOShares(), sim_s=1.0)
        tag = f"resex.dom{rep.server_dom.domid}"
        assert ctl.probes.series[f"{tag}.rate"].values.max() == 1.0

    def test_backoff_without_interference(self):
        """Fig. 8: with no interferer, IOShares leaves the victim alone."""
        _, rep, _, ctl = scenario(IOShares(), sim_s=1.0, with_interferer=False)
        # ~199 us: the base cycle minus the agent's hidden reporting
        # overlap (see TestAgentReporting.test_reporting_costs_cpu).
        assert rep.server.latencies_us().mean() == pytest.approx(204.0, abs=10.0)
        caps = ctl.probes.series[f"resex.dom{rep.server_dom.domid}.cap"].values
        assert caps.min() == 100

    def test_rate_decays_after_congestion_clears(self):
        """Back-off: once capped hard, violations stop and the rate
        decays toward the base rate."""
        _, _, intf, ctl = scenario(IOShares(), sim_s=1.5)
        rates = ctl.probes.series[
            f"resex.dom{intf.server_dom.domid}.rate"
        ].values
        peak = rates.argmax()
        assert rates[peak] > rates[-1]  # decayed from the peak


class TestStaticRatioBehaviour:
    def test_caps_by_inferred_buffer_ratio(self):
        _, rep, intf, ctl = scenario(StaticRatio(), sim_s=1.0)
        cap = ctl.probes.series[
            f"resex.dom{intf.server_dom.domid}.cap"
        ].values.min()
        # 2MB / 64KB = ratio 32 -> cap ~3.
        assert 2 <= cap <= 4

    def test_improves_latency(self):
        _, rep_none, _, _ = scenario(None, sim_s=1.5)
        _, rep_static, _, _ = scenario(StaticRatio(), sim_s=1.5)
        assert (
            rep_static.server.latencies_us().mean()
            < rep_none.server.latencies_us().mean() - 40.0
        )

    def test_leaves_same_size_peer_uncapped(self):
        bed = Testbed.paper_testbed(seed=3)
        s, c = bed.node("server-host"), bed.node("client-host")
        rep = BenchExPair(
            bed, s, c, BenchExConfig(name="rep", warmup_requests=50), with_agent=True
        )
        peer = BenchExPair(bed, s, c, BenchExConfig(name="peer"))
        ctl = ResExController(s, StaticRatio())
        ctl.monitor(rep.server_dom, agent=rep.agent, sla=SLA)
        ctl.monitor(peer.server_dom)
        ctl.start()
        run_pairs(bed, [rep, peer], until_ns=1 * SEC)
        caps = ctl.probes.series[
            f"resex.dom{peer.server_dom.domid}.cap"
        ].values
        assert caps.min() == 100


class TestSetCap:
    """An unchanged cap is not re-applied; that must change nothing a
    trace, the scheduler or a probe can see."""

    PERIOD_NS = 30_000_000

    def _managed_vm(self):
        from repro import telemetry

        with telemetry.capture() as bus:
            bed = Testbed.paper_testbed(seed=1)
        s = bed.node("server-host")
        dom = s.create_guest("vm")
        ctl = ResExController(s, NoOpPolicy())
        return bus, ctl, ctl.monitor(dom), dom

    @staticmethod
    def _names(bus):
        return [
            r.name for r in bus.records
            if r.name in ("cap_change", "pricing_decision")
        ]

    def test_unchanged_cap_emits_nothing_and_keeps_budget(self):
        bus, ctl, vm, dom = self._managed_vm()
        ctl.set_cap(vm, 40)
        budget = dom.vcpu.cap_budget_ns(self.PERIOD_NS)
        bus.clear()
        ctl.set_cap(vm, 40)
        ctl.set_cap(vm, 40.3)  # rounds to the cap already set
        assert self._names(bus) == []
        assert dom.vcpu.cap_percent == 40
        assert dom.vcpu.cap_budget_ns(self.PERIOD_NS) == budget
        assert ctl.get_cap(vm) == 40

    def test_changed_cap_emits_one_event_of_each(self):
        bus, ctl, vm, dom = self._managed_vm()
        ctl.set_cap(vm, 40)
        bus.clear()
        ctl.set_cap(vm, 25)
        assert sorted(self._names(bus)) == ["cap_change", "pricing_decision"]
        assert dom.vcpu.cap_percent == 25
        assert dom.vcpu.cap_budget_ns(self.PERIOD_NS) == self.PERIOD_NS * 25 // 100
        assert ctl.get_cap(vm) == 25
