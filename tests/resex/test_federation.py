"""Tests for federated ResEx: the price federation endpoints
(PriceCoordinator + PriceAgent) and the RackFollower policy, on the
paper's two-host testbed (ablation A9) and on a small cluster."""

import pytest

from repro.benchex import INTERFERER_2MB, BenchExConfig, BenchExPair, run_pairs
from repro.errors import PricingError
from repro.experiments import Testbed
from repro.hw import LeafSpine
from repro.resex import (
    IOShares,
    LatencySLA,
    PriceAgent,
    PriceCoordinator,
    RackFollower,
    ResExController,
)
from repro.units import SEC

SLA = LatencySLA(base_mean_us=209.0, base_std_us=3.0, threshold_pct=10.0)

SYNC_NS = 1_000_000


def wire_price_federation(env, controllers, delay_ns=40_000):
    """Coordinator on controller 0 and an agent on every other one,
    joined by an in-process ``send`` that delivers each cast
    ``delay_ns`` later.

    Returns the endpoints by rack id (index 0 is the coordinator).
    """
    endpoints = []

    def send(dst, round_no, price):
        env.timeout(delay_ns).callbacks.append(
            lambda _ev: endpoints[dst].on_cast(round_no, price)
        )

    endpoints.append(
        PriceCoordinator(env, controllers[0], len(controllers), SYNC_NS, send)
    )
    for r, ctl in enumerate(controllers[1:], 1):
        endpoints.append(PriceAgent(r, ctl))
    endpoints[0].start()
    return endpoints


def build(federated, seed=5):
    """The A9 deployment: IOShares on the server host and, federated,
    a RackFollower on the client host managing only the interferer's
    client VM, fed over a 50 us link every 1 ms."""
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
    coord = None
    if federated:
        fctl = ResExController(c, RackFollower())
        fctl.monitor(intf.client_dom)
        fctl.start()
        coord, _agent = wire_price_federation(bed.env, [ctl, fctl], 50_000)
    return bed, rep, intf, ctl, fctl, coord


def build_pair(seed=1):
    """One bare guest per host: a coordinator controller on the server
    host and an (unstarted) follower controller on the client host."""
    bed = Testbed.paper_testbed(seed=seed)
    s, c = bed.node("server-host"), bed.node("client-host")
    ctl_s = ResExController(s, IOShares())
    ctl_c = ResExController(c, RackFollower())
    ctl_s.monitor(s.create_guest("a"))
    ctl_c.monitor(c.create_guest("b"))
    return bed, ctl_s, ctl_c


class TestFederation:
    def test_rate_propagates_to_client_side(self):
        bed, rep, intf, ctl, fctl, coord = build(True)
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
        assert coord.syncs > 500

    def test_interferer_client_gets_capped(self):
        bed, rep, intf, ctl, fctl, _ = build(True)
        run_pairs(bed, [rep, intf], until_ns=1 * SEC)
        caps = fctl.probes.series[
            f"resex.dom{intf.client_dom.domid}.cap"
        ].values
        assert caps.min() < 100

    def test_victim_client_untouched(self):
        """Nothing caps the victim's client VM: the client-host
        controller does not manage it, and its cap ends at 100."""
        bed, rep, intf, ctl, fctl, _ = build(True)
        run_pairs(bed, [rep, intf], until_ns=1 * SEC)
        domid = rep.client_dom.domid
        assert domid not in [vm.domid for vm in fctl.vms]
        assert bed.node("client-host").hypervisor.get_cap(domid) == 100

    def test_federation_improves_on_single_sided(self):
        bed1, rep1, intf1, *_ = build(False)
        run_pairs(bed1, [rep1, intf1], until_ns=int(1.5 * SEC))
        bed2, rep2, intf2, *_ = build(True)
        run_pairs(bed2, [rep2, intf2], until_ns=int(1.5 * SEC))
        single = rep1.server.latencies_us().mean()
        fed = rep2.server.latencies_us().mean()
        assert fed < single + 1.0  # at least as good; usually better

    def test_relay_delay(self):
        """A server-host price lands on the client host one sync tick
        plus one propagation delay later — never earlier."""
        bed, ctl_s, ctl_c = build_pair()
        coord, _agent = wire_price_federation(bed.env, [ctl_s, ctl_c], 50_000)
        ctl_s.vms[0].charge_rate = 5.0
        # Just before the cast arrives: still the calm price.
        bed.env.run(until=SYNC_NS + 49_999)
        assert ctl_c.cluster_price == 1.0
        # The moment the propagation delay elapses: price applied.
        bed.env.run(until=SYNC_NS + 50_001)
        assert ctl_c.cluster_price == 5.0
        assert coord.syncs == 1

    def test_chaos_federation_link_drop(self):
        """While the federation link is down, prices do not cross
        hosts; the follower keeps the stale price until recovery."""
        from repro.faults import (
            Fault,
            FaultCampaign,
            FaultEngine,
            FederationOutage,
        )

        bed, ctl_s, ctl_c = build_pair()
        coord, _agent = wire_price_federation(bed.env, [ctl_s, ctl_c], 50_000)
        # Link down from 1.5 ms to 6.0 ms: the ticks at 2, 3, 4 and
        # 5 ms are lost rounds.
        campaign = FaultCampaign.scripted(
            [Fault("federation-outage", "fed", 1_500_000, 4_500_000)],
            name="fed-drop",
        )
        engine = FaultEngine(bed.env, campaign).register(FederationOutage(coord))
        engine.start()

        primary_vm = ctl_s.vms[0]
        primary_vm.charge_rate = 3.0
        bed.env.run(until=1_400_000)  # one healthy round casts 3.0
        assert ctl_c.cluster_price == 3.0

        primary_vm.charge_rate = 9.0  # raised while the link is down
        bed.env.run(until=5_500_000)
        assert ctl_c.cluster_price == 3.0  # stale price held
        assert coord.syncs_lost >= 3

        bed.env.run(until=7_000_000)  # link healed: the next round casts
        assert ctl_c.cluster_price == 9.0
        assert engine.injected == 1 and engine.cleared == 1


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


class TestClusterFederation:
    """The per-rack price federation: a PriceCoordinator on rack 0 and
    a PriceAgent on every other rack."""

    def test_price_lands_only_after_the_cast(self):
        """A price discovered in rack 0 becomes the cluster price at the
        sync tick and reaches every other rack only when its cast
        lands."""
        bed, ctls = build_cluster_bed()
        coord, *agents = wire_price_federation(bed.env, ctls)
        ctls[0].vms[0].charge_rate = 7.0

        # Just before the tick: nothing cast yet.
        bed.env.run(until=SYNC_NS - 1)
        assert all(ctl.cluster_price == 1.0 for ctl in ctls)
        # At the tick rack 0 adopts its price; the casts are in flight.
        bed.env.run(until=SYNC_NS + 1)
        assert coord.cluster_price == ctls[0].cluster_price == 7.0
        assert all(ctl.cluster_price == 1.0 for ctl in ctls[1:])
        # The casts landed: applied everywhere, one round each.
        bed.env.run(until=SYNC_NS + 40_001)
        assert all(ctl.cluster_price == 7.0 for ctl in ctls)
        assert coord.syncs == 1
        assert all(agent.syncs == 1 for agent in agents)

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
        agent = PriceAgent(1, ctls[1])
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
        with pytest.raises(PricingError, match="rack 0 is the coordinator"):
            PriceAgent(0, ctls[1])
