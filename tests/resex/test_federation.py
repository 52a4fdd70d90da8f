"""Tests for federated ResEx: the two-host relay (Follower +
ResExFederation) and the per-rack price federation endpoints
(PriceCoordinator + PriceAgent)."""

import pytest

from repro.benchex import INTERFERER_2MB, BenchExConfig, BenchExPair, run_pairs
from repro.errors import PricingError
from repro.experiments import Testbed
from repro.hw import LeafSpine
from repro.resex import (
    Follower,
    IOShares,
    LatencySLA,
    PriceAgent,
    PriceCoordinator,
    RackFollower,
    ResExController,
    ResExFederation,
)
from repro.units import SEC

SLA = LatencySLA(base_mean_us=209.0, base_std_us=3.0, threshold_pct=10.0)


def build(federated, seed=5):
    bed = Testbed.paper_testbed(seed=seed)
    s, c = bed.node("server-host"), bed.node("client-host")
    rep = BenchExPair(
        bed, s, c, BenchExConfig(name="rep", warmup_requests=50), with_agent=True
    )
    intf = BenchExPair(bed, s, c, INTERFERER_2MB)
    ctl = ResExController(s, IOShares())
    ctl.monitor(rep.server_dom, agent=rep.agent, sla=SLA)
    ctl.monitor(intf.server_dom)
    ctl.start()
    fctl = None
    fed = None
    if federated:
        fctl = ResExController(c, Follower())
        fctl.monitor(intf.client_dom)
        fctl.monitor(rep.client_dom)
        fctl.start()
        fed = ResExFederation(bed.env)
        fed.link((ctl, intf.server_dom.domid), (fctl, intf.client_dom.domid))
        fed.start()
    return bed, rep, intf, ctl, fctl, fed


class TestFederation:
    def test_rate_propagates_to_client_side(self):
        bed, rep, intf, ctl, fctl, fed = build(True)
        run_pairs(bed, [rep, intf], until_ns=1 * SEC)
        primary_rates = ctl.probes.series[
            f"resex.dom{intf.server_dom.domid}.rate"
        ].values
        follower_rates = fctl.probes.series[
            f"resex.dom{intf.client_dom.domid}.rate"
        ].values
        assert primary_rates.max() > 1.0  # congestion was priced
        # The elevated price reached the client-side controller too.
        assert follower_rates.max() > 1.0
        assert follower_rates.max() == pytest.approx(
            primary_rates.max(), rel=0.25
        )
        assert fed.syncs > 500

    def test_interferer_client_gets_capped(self):
        bed, rep, intf, ctl, fctl, _ = build(True)
        run_pairs(bed, [rep, intf], until_ns=1 * SEC)
        caps = fctl.probes.series[
            f"resex.dom{intf.client_dom.domid}.cap"
        ].values
        assert caps.min() < 100

    def test_victim_client_untouched(self):
        bed, rep, intf, ctl, fctl, _ = build(True)
        run_pairs(bed, [rep, intf], until_ns=1 * SEC)
        caps = fctl.probes.series[
            f"resex.dom{rep.client_dom.domid}.cap"
        ].values
        assert caps.min() == 100

    def test_federation_improves_on_single_sided(self):
        bed1, rep1, intf1, *_ = build(False)
        run_pairs(bed1, [rep1, intf1], until_ns=int(1.5 * SEC))
        bed2, rep2, intf2, *_ = build(True)
        run_pairs(bed2, [rep2, intf2], until_ns=int(1.5 * SEC))
        single = rep1.server.latencies_us().mean()
        fed = rep2.server.latencies_us().mean()
        assert fed < single + 1.0  # at least as good; usually better

    def test_relay_delay(self):
        """A primary rate change lands at the follower one sync round
        plus one propagation delay later — never earlier."""
        bed = Testbed.paper_testbed(seed=1)
        s, c = bed.node("server-host"), bed.node("client-host")
        dom_s = s.create_guest("a")
        dom_c = c.create_guest("b")
        ctl_s = ResExController(s, IOShares())
        ctl_c = ResExController(c, Follower())
        ctl_s.monitor(dom_s)
        ctl_c.monitor(dom_c)
        fed = ResExFederation(
            bed.env, sync_interval_ns=1_000_000, propagation_ns=50_000
        )
        fed.link((ctl_s, dom_s.domid), (ctl_c, dom_c.domid))
        fed.start()

        ctl_s.vm_by_domid(dom_s.domid).charge_rate = 5.0
        follower_vm = ctl_c.vm_by_domid(dom_c.domid)
        # Just before the sync message arrives: still the default rate.
        bed.env.run(until=1_000_000 + 49_999)
        assert follower_vm.charge_rate == 1.0
        # The moment the propagation delay elapses: rate applied.
        bed.env.run(until=1_000_000 + 50_001)
        assert follower_vm.charge_rate == 5.0
        assert fed.syncs == 1

    def test_chaos_federation_link_drop(self):
        """While the federation link is down, rate changes do not cross
        hosts; the follower keeps the stale price until recovery."""
        from repro.faults import (
            Fault,
            FaultCampaign,
            FaultEngine,
            FederationOutage,
        )

        bed = Testbed.paper_testbed(seed=1)
        s, c = bed.node("server-host"), bed.node("client-host")
        dom_s = s.create_guest("a")
        dom_c = c.create_guest("b")
        ctl_s = ResExController(s, IOShares())
        ctl_c = ResExController(c, Follower())
        ctl_s.monitor(dom_s)
        ctl_c.monitor(dom_c)
        fed = ResExFederation(
            bed.env, sync_interval_ns=1_000_000, propagation_ns=50_000
        )
        fed.link((ctl_s, dom_s.domid), (ctl_c, dom_c.domid))
        fed.start()

        # Link down from 1.5 ms to 6.0 ms (sync rounds fire at 1.00,
        # 2.05, 3.05, ... ms — each healthy round adds one propagation
        # delay to the cadence — so rounds 2.05 through 5.05 are lost).
        campaign = FaultCampaign.scripted(
            [Fault("federation-outage", "fed", 1_500_000, 4_500_000)],
            name="fed-drop",
        )
        engine = FaultEngine(bed.env, campaign).register(FederationOutage(fed))
        engine.start()

        primary_vm = ctl_s.vm_by_domid(dom_s.domid)
        follower_vm = ctl_c.vm_by_domid(dom_c.domid)
        primary_vm.charge_rate = 3.0
        bed.env.run(until=1_400_000)  # one healthy sync relays 3.0
        assert follower_vm.charge_rate == 3.0

        primary_vm.charge_rate = 9.0  # raised while the link is down
        bed.env.run(until=5_500_000)
        assert follower_vm.charge_rate == 3.0  # stale price held
        assert fed.syncs_lost >= 3

        bed.env.run(until=7_000_000)  # link healed: next sync relays
        assert follower_vm.charge_rate == 9.0
        assert engine.injected == 1 and engine.cleared == 1

    def test_link_validation(self):
        bed = Testbed.paper_testbed(seed=1)
        s, c = bed.node("server-host"), bed.node("client-host")
        dom_s = s.create_guest("a")
        dom_c = c.create_guest("b")
        ctl_s = ResExController(s, IOShares())
        ctl_c = ResExController(c, Follower())
        ctl_s.monitor(dom_s)
        ctl_c.monitor(dom_c)
        fed = ResExFederation(bed.env)
        with pytest.raises(PricingError, match="distinct"):
            fed.link((ctl_s, dom_s.domid), (ctl_s, dom_s.domid))
        with pytest.raises(PricingError):
            fed.link((ctl_s, 999), (ctl_c, dom_c.domid))
        with pytest.raises(PricingError, match="no federation links"):
            ResExFederation(bed.env).start()
        with pytest.raises(PricingError):
            ResExFederation(bed.env, sync_interval_ns=0)

    def test_duplicate_follower_link_rejected(self):
        """Two links feeding one follower VM would race (last writer
        wins on charge_rate every sync round); the registration must
        fail instead."""
        bed = Testbed.paper_testbed(seed=1)
        s, c = bed.node("server-host"), bed.node("client-host")
        dom_s1 = s.create_guest("a1")
        dom_s2 = s.create_guest("a2")
        dom_c = c.create_guest("b")
        ctl_s = ResExController(s, IOShares())
        ctl_c = ResExController(c, Follower())
        ctl_s.monitor(dom_s1)
        ctl_s.monitor(dom_s2)
        ctl_c.monitor(dom_c)
        fed = ResExFederation(bed.env)
        fed.link((ctl_s, dom_s1.domid), (ctl_c, dom_c.domid))
        with pytest.raises(PricingError, match="already the follower"):
            fed.link((ctl_s, dom_s2.domid), (ctl_c, dom_c.domid))
        # The same primary may feed several followers, though.
        dom_c2 = c.create_guest("b2")
        ctl_c.monitor(dom_c2)
        fed.link((ctl_s, dom_s1.domid), (ctl_c, dom_c2.domid))


def build_cluster_bed(racks=3, seed=3):
    """A minimal leaf-spine cluster: one host per rack, one guest each."""
    from repro.ib.params import DEFAULT_FABRIC_PARAMS

    bps = DEFAULT_FABRIC_PARAMS.link_bytes_per_sec
    bed = Testbed(
        seed=seed,
        topology_factory=lambda fabric: LeafSpine(
            fabric, bps, racks=racks, hosts_per_rack=1, spines=1
        ),
    )
    controllers = []
    for r in range(racks):
        node = bed.add_node(f"rack{r}-head", ncpus=2)
        dom = node.create_guest(f"rack{r}-vm")
        ctl = ResExController(node, IOShares() if r == 0 else RackFollower())
        ctl.monitor(dom)
        controllers.append(ctl)
    return bed, controllers


SYNC_NS = 1_000_000


def wire_price_federation(env, controllers, delay_ns=40_000):
    """Coordinator on rack 0 and an agent on every other rack, joined by
    an in-process ``send`` that delivers each message ``delay_ns`` later.

    Returns the endpoints by rack id (index 0 is the coordinator).
    """
    endpoints = []

    def send(src, dst, verb, round_no, price):
        def deliver(_ev):
            if verb == "gather":
                endpoints[0].on_gather(round_no, src, price)
            else:
                endpoints[dst].on_cast(round_no, price)

        env.timeout(delay_ns).callbacks.append(deliver)

    endpoints.append(
        PriceCoordinator(env, controllers[0], len(controllers), SYNC_NS, send)
    )
    for r, ctl in enumerate(controllers[1:], 1):
        endpoints.append(PriceAgent(env, r, ctl, SYNC_NS, send))
    for endpoint in endpoints:
        endpoint.start()
    return endpoints


class TestClusterFederation:
    """The per-rack price federation: a PriceCoordinator on rack 0 and
    a PriceAgent on every other rack."""

    def test_price_lands_only_after_the_cast(self):
        """A price discovered in rack 0 reaches every rack's
        cluster_price after one gather + cast round — the coordinator
        once the last gather arrives, each agent once its cast does."""
        bed, ctls = build_cluster_bed()
        coord, *agents = wire_price_federation(bed.env, ctls)
        ctls[0].vms[0].charge_rate = 7.0

        # At the sync instant the gathers are still in flight.
        bed.env.run(until=SYNC_NS + 1)
        assert all(ctl.cluster_price == 1.0 for ctl in ctls)
        # Gathers landed and the round reduced; casts still in flight.
        bed.env.run(until=SYNC_NS + 60_000)
        assert coord.cluster_price == ctls[0].cluster_price == 7.0
        assert all(ctl.cluster_price == 1.0 for ctl in ctls[1:])
        # The casts landed: applied everywhere, one round each.
        bed.env.run(until=SYNC_NS + 100_000)
        assert all(ctl.cluster_price == 7.0 for ctl in ctls)
        assert coord.syncs == 1
        assert all(agent.syncs == 1 for agent in agents)

    def test_max_reduce_across_racks(self):
        bed, ctls = build_cluster_bed()
        coord, *agents = wire_price_federation(bed.env, ctls)
        ctls[1].vms[0].charge_rate = 3.0
        ctls[2].vms[0].charge_rate = 5.0
        bed.env.run(until=2 * SYNC_NS)
        assert coord.cluster_price == 5.0
        assert all(agent.cluster_price == 5.0 for agent in agents)

    def test_rack_follower_applies_cluster_price(self):
        """A started RackFollower controller prices its VMs at the
        federated cluster price and actuates the congestion cap."""
        bed, ctls = build_cluster_bed()
        follower = ctls[1]
        follower.start()
        wire_price_federation(bed.env, ctls)
        ctls[0].vms[0].charge_rate = 4.0
        bed.env.run(until=int(0.1 * SEC))
        vm = follower.vms[0]
        assert vm.charge_rate == 4.0
        assert follower.get_cap(vm) == 25  # 100 / price

    def test_paused_federation_loses_rounds(self):
        bed, ctls = build_cluster_bed()
        coord, *agents = wire_price_federation(bed.env, ctls)
        ctls[0].vms[0].charge_rate = 9.0
        coord.paused = True
        bed.env.run(until=3_500_000)
        assert all(ctl.cluster_price == 1.0 for ctl in ctls)
        assert coord.syncs == 0 and coord.syncs_lost == 3
        assert all(agent.syncs == 0 for agent in agents)
        coord.paused = False
        bed.env.run(until=5_000_000)
        assert all(ctl.cluster_price == 9.0 for ctl in ctls)
        assert coord.syncs >= 1

    def test_agent_drops_stale_casts(self):
        bed, ctls = build_cluster_bed()
        agent = PriceAgent(bed.env, 1, ctls[1], SYNC_NS, send=None)
        agent.on_cast(2, 6.0)
        agent.on_cast(1, 3.0)  # an older round arriving late
        agent.on_cast(2, 8.0)  # a repeat of an applied round
        assert ctls[1].cluster_price == 6.0
        assert agent.syncs == 1

    def test_constructor_validation(self):
        bed, ctls = build_cluster_bed()
        with pytest.raises(PricingError, match="positive"):
            PriceCoordinator(bed.env, ctls[0], 3, 0, send=None)
        with pytest.raises(PricingError, match="at least two racks"):
            PriceCoordinator(bed.env, ctls[0], 1, SYNC_NS, send=None)
        with pytest.raises(PricingError, match="positive"):
            PriceAgent(bed.env, 1, ctls[1], 0, send=None)
        with pytest.raises(PricingError, match="rack 0 is the coordinator"):
            PriceAgent(bed.env, 0, ctls[1], SYNC_NS, send=None)
