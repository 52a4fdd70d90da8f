"""Tests for repro.hw.topology domain plans and direct host attachment."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.hw import FluidFabric, Host, path_between
from repro.hw.topology import FatTreePlan, LeafSpinePlan
from repro.sim import Environment
from repro.units import GiB

BPS = float(GiB)

#: Switch-hop routes and link inventories of three fabric shapes
#: (leaf-spine 3x2x2, an oversubscribed leaf-spine, fat-tree k=4),
#: captured from the host-attached router the plans replaced.
PLAN_ROUTES = json.loads(
    Path(__file__).with_name("plan_routes.json").read_text()
)["shapes"]


def _fabric():
    return FluidFabric(Environment())


def _attach_hosts(fabric, n, prefix="h"):
    hosts = [Host(f"{prefix}{i}", ncpus=1) for i in range(n)]
    for h in hosts:
        h.attach_fabric(fabric, BPS)
    return hosts


def _plan_fabric(plan):
    """One fabric holding every domain's switch links plus the host
    ports, and a router giving the full link path for a host pair."""
    fabric = _fabric()
    for d in range(plan.n_domains):
        for name, bps in plan.domain_links(d):
            fabric.add_link(name, bps)
    hosts = _attach_hosts(fabric, plan.n_hosts)

    def path(i, j):
        if plan.domain_of(i) == plan.domain_of(j):
            hops = plan.intra_hops(i, j)
        else:
            src_side, dst_side = plan.cross_hops(i, j)
            hops = src_side + dst_side
        return [
            hosts[i].tx_link,
            *(fabric.links[name] for name in hops),
            hosts[j].rx_link,
        ]

    return fabric, path


def _plan_of(shape):
    params = shape["params"]
    if "k" in params:
        return FatTreePlan(**params)
    return LeafSpinePlan(**params)


class TestAttachment:
    def test_attach_creates_port_links(self):
        fabric = _fabric()
        (h,) = _attach_hosts(fabric, 1)
        assert h.is_attached
        assert not hasattr(h, "topology")
        assert fabric.links["h0.tx"] is h.tx_link
        assert fabric.links["h0.rx"] is h.rx_link

    def test_host_double_fabric_attachment_rejected(self):
        """A host with ports cannot attach again (it would create
        duplicate port links under fresh names)."""
        fabric = _fabric()
        h = Host("h", ncpus=1)
        h.attach_fabric(fabric, BPS)
        with pytest.raises(ConfigError, match="already attached"):
            h.attach_fabric(fabric, BPS)


class TestPathBetween:
    def test_unattached_hosts_rejected(self):
        with pytest.raises(ConfigError, match="attached"):
            path_between(Host("a", ncpus=1), Host("b", ncpus=1))

    def test_crossbar_matches_legacy_two_link_path(self):
        """Directly-attached hosts share the paper's crossbar: two-link
        paths, loopback included."""
        a, b = _attach_hosts(_fabric(), 2)
        assert path_between(a, b) == [a.tx_link, b.rx_link]
        assert path_between(b, a) == [b.tx_link, a.rx_link]
        assert path_between(a, a) == [a.tx_link, a.rx_link]


class TestLeafSpine:
    def test_switch_links_exist_at_construction(self):
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=1, spines=2, link_bytes_per_sec=BPS
        )
        fabric, _ = _plan_fabric(plan)
        for name in ("leaf0.up0", "leaf0.up1", "leaf1.down0", "leaf1.down1"):
            assert name in fabric.links

    def test_intra_rack_path_is_two_links(self):
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=2, spines=2, link_bytes_per_sec=BPS
        )
        assert plan.intra_hops(0, 1) == ()
        assert plan.intra_hops(3, 2) == ()

    def test_cross_rack_path_crosses_one_spine(self):
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=2, spines=2, link_bytes_per_sec=BPS
        )
        # hosts 0,1 in rack 0; hosts 2,3 in rack 1.  Spine = (0+2)%2 = 0.
        assert plan.cross_hops(0, 2) == (("leaf0.up0",), ("leaf1.down0",))
        # Reverse direction uses rack 1's uplink and rack 0's downlink.
        assert plan.cross_hops(2, 0) == (("leaf1.up0",), ("leaf0.down0",))

    def test_spine_choice_is_deterministic_function_of_indices(self):
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=2, spines=2, link_bytes_per_sec=BPS
        )
        # (1 + 2) % 2 == 1: this pair rides spine 1.
        assert plan.cross_hops(1, 2) == (("leaf0.up1",), ("leaf1.down1",))

    def test_rack_of(self):
        plan = LeafSpinePlan(
            racks=3, hosts_per_rack=2, spines=1, link_bytes_per_sec=BPS
        )
        assert [plan.domain_of(i) for i in range(6)] == [0, 0, 1, 1, 2, 2]

    def test_oversubscribed_uplinks(self):
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=4, spines=1, link_bytes_per_sec=BPS,
            uplink_bytes_per_sec=BPS / 2,
        )
        fabric, _ = _plan_fabric(plan)
        assert fabric.links["leaf0.up0"].capacity_bps == BPS / 2
        assert fabric.links["leaf1.down0"].capacity_bps == BPS / 2
        assert fabric.links["h0.tx"].capacity_bps == BPS

    def test_shape_validation(self):
        with pytest.raises(ConfigError, match=">= 1"):
            LeafSpinePlan(
                racks=0, hosts_per_rack=1, spines=1, link_bytes_per_sec=BPS
            )


class TestFatTree:
    def test_capacity_is_k_cubed_over_four(self):
        assert FatTreePlan(k=4, link_bytes_per_sec=BPS).n_hosts == 16
        assert FatTreePlan(k=8, link_bytes_per_sec=BPS).n_hosts == 128

    def test_odd_arity_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            FatTreePlan(k=3, link_bytes_per_sec=BPS)

    def test_same_edge_path_is_two_links(self):
        plan = FatTreePlan(k=4, link_bytes_per_sec=BPS)
        # Hosts 0 and 1 share edge switch 0 of pod 0.
        assert plan.intra_hops(0, 1) == ()

    def test_same_pod_path_crosses_aggregation(self):
        plan = FatTreePlan(k=4, link_bytes_per_sec=BPS)
        # Hosts 0 (edge 0) and 2 (edge 1) both in pod 0; agg = (0+2)%2.
        assert plan.intra_hops(0, 2) == ("pod0.edge0.up0", "pod0.agg0.down1")

    def test_cross_pod_path_crosses_core(self):
        plan = FatTreePlan(k=4, link_bytes_per_sec=BPS)
        # Host 0 (pod 0) -> host 4 (pod 1): core = (0+4)%4 = 0, agg 0.
        assert plan.cross_hops(0, 4) == (
            ("pod0.edge0.up0", "pod0.agg0.up0"),
            ("core0.down1", "pod1.agg0.down0"),
        )

    def test_routing_total_is_deterministic(self):
        """Every (src, dst) route is a pure function of the indices:
        rebuilding the same plan gives the same link names."""
        def routes():
            _, path = _plan_fabric(FatTreePlan(k=4, link_bytes_per_sec=BPS))
            return {
                (i, j): [link.name for link in path(i, j)]
                for i in range(16)
                for j in range(16)
                if i != j
            }

        assert routes() == routes()


class TestTopologyTraffic:
    def test_cross_rack_transfers_contend_on_uplink(self):
        """Two cross-rack flows sharing a leaf uplink split it; the
        fluid solver must see the switch hop as a constraining link."""
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=2, spines=1, link_bytes_per_sec=BPS,
            uplink_bytes_per_sec=BPS / 2,
        )
        fabric, path = _plan_fabric(plan)
        nbytes = 1_000_000
        t1 = fabric.submit(path(0, 2), nbytes, "a")
        t2 = fabric.submit(path(1, 3), nbytes, "b")
        # Both flows ride leaf0.up0 (capacity BPS/2): each gets BPS/4.
        assert t1.rate == pytest.approx(BPS / 4 / 1e9)
        assert t2.rate == pytest.approx(BPS / 4 / 1e9)

    def test_intra_rack_transfers_do_not_touch_uplinks(self):
        plan = LeafSpinePlan(
            racks=2, hosts_per_rack=2, spines=1, link_bytes_per_sec=BPS
        )
        fabric, path = _plan_fabric(plan)
        t = fabric.submit(path(0, 1), 1_000_000, "a")
        assert all("leaf" not in link.name for link in t.path)
        assert t.rate == pytest.approx(BPS / 1e9)


class TestDomainPlans:
    """The plans must reproduce, for every host pair, the switch hops
    of the captured reference routes, and own exactly the captured link
    inventory (disjoint across domains, at the captured rates) — so a
    cluster partitioned on a plan contends on exactly the links a
    monolithic fabric would."""

    def _shape(self, name):
        (shape,) = [s for s in PLAN_ROUTES if s["name"] == name]
        return shape

    def _assert_routes_match(self, plan, shape):
        n = plan.n_hosts
        assert len(shape["routes"]) == n * (n - 1)
        for i, j, middle in shape["routes"]:
            if plan.domain_of(i) == plan.domain_of(j):
                assert list(plan.intra_hops(i, j)) == middle, (i, j)
            else:
                src_side, dst_side = plan.cross_hops(i, j)
                assert list(src_side) + list(dst_side) == middle, (i, j)

    def _assert_links_partition(self, plan, shape):
        """Every switch link is owned by exactly one domain, at the
        rate the reference fabric created it with."""
        owned = [
            [name, bps]
            for d in range(plan.n_domains)
            for name, bps in plan.domain_links(d)
        ]
        names = [name for name, _bps in owned]
        assert len(names) == len(set(names)), "link owned by two domains"
        assert sorted(owned) == sorted(shape["links"])

    def test_leaf_spine_plan_matches_topology(self):
        shape = self._shape("leaf_spine_3x2x2")
        plan = _plan_of(shape)
        self._assert_links_partition(plan, shape)
        self._assert_routes_match(plan, shape)
        for i in range(6):
            assert plan.domain_of(i) == i // 2
            assert i in plan.hosts_of(plan.domain_of(i))

    def test_leaf_spine_plan_oversubscribed_uplinks(self):
        shape = self._shape("leaf_spine_oversubscribed")
        plan = _plan_of(shape)
        assert plan.uplink_bytes_per_sec == BPS / 4
        self._assert_links_partition(plan, shape)
        self._assert_routes_match(plan, shape)

    def test_fat_tree_plan_matches_topology(self):
        shape = self._shape("fat_tree_k4")
        plan = _plan_of(shape)
        self._assert_links_partition(plan, shape)
        self._assert_routes_match(plan, shape)
        per_pod = 4  # (k/2)^2
        for i in range(16):
            assert plan.domain_of(i) == i // per_pod
            assert i in plan.hosts_of(plan.domain_of(i))

    def test_plan_route_split_misuse_rejected(self):
        ls = LeafSpinePlan(
            racks=2, hosts_per_rack=2, spines=1, link_bytes_per_sec=BPS
        )
        with pytest.raises(ConfigError, match="share rack"):
            ls.cross_hops(0, 1)
        with pytest.raises(ConfigError, match="different racks"):
            ls.intra_hops(0, 3)
        ft = FatTreePlan(k=4, link_bytes_per_sec=BPS)
        with pytest.raises(ConfigError, match="different pods"):
            ft.intra_hops(0, 4)
        with pytest.raises(ConfigError, match="share pod"):
            ft.cross_hops(0, 1)
        with pytest.raises(ConfigError, match="out of range"):
            ls.intra_hops(0, 99)

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            LeafSpinePlan(
                racks=0, hosts_per_rack=2, spines=1, link_bytes_per_sec=BPS
            )
        with pytest.raises(ConfigError):
            FatTreePlan(k=3, link_bytes_per_sec=BPS)
