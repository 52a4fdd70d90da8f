"""Tests for Hypervisor, Domain, XenStat, and introspection."""

import pytest

from repro.errors import HypervisorError, IntrospectionError, SchedulerError
from repro.hw import Host
from repro.sim import Environment
from repro.units import MS
from repro.xen import Hypervisor, XenStat, xc_map_foreign_range


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def hv(env):
    return Hypervisor(env, Host("hostA", ncpus=4))


class TestDomainLifecycle:
    def test_dom0_exists(self, hv):
        assert hv.dom0.domid == 0
        assert hv.dom0.is_privileged

    def test_create_domain_ids_increment(self, hv):
        d1 = hv.create_domain("vm1", pcpus=[1])
        d2 = hv.create_domain("vm2", pcpus=[2])
        assert (d1.domid, d2.domid) == (1, 2)
        assert not d1.is_privileged

    def test_lookup_by_id_and_name(self, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        assert hv.domain(d.domid) is d
        assert hv.domain_by_name("vm1") is d
        with pytest.raises(HypervisorError):
            hv.domain(99)
        with pytest.raises(HypervisorError):
            hv.domain_by_name("nope")

    def test_guest_domains_excludes_dom0(self, hv):
        hv.create_domain("vm1", pcpus=[1])
        hv.create_domain("vm2", pcpus=[2])
        names = [d.name for d in hv.guest_domains()]
        assert names == ["vm1", "vm2"]

    def test_invalid_pcpu_rejected(self, hv):
        with pytest.raises(HypervisorError):
            hv.create_domain("vm", pcpus=[42])
        with pytest.raises(HypervisorError):
            hv.create_domain("vm", pcpus=[])

    def test_multi_vcpu_domain(self, hv):
        d = hv.create_domain("smp", pcpus=[1, 2])
        assert len(d.vcpus) == 2


class TestCapControls:
    def test_set_get_cap(self, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        hv.set_cap(d.domid, 25)
        assert hv.get_cap(d.domid) == 25

    def test_bad_cap_rejected(self, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        with pytest.raises(SchedulerError):
            hv.set_cap(d.domid, 0)


class TestXenStat:
    def test_cpu_time_counter(self, env, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        stat = XenStat(hv)

        def app(env):
            yield d.vcpu.compute(3 * MS)

        env.process(app(env))
        env.run(until=10 * MS)
        assert stat.cpu_time_ns(d.domid) == 3 * MS

    def test_percent_since_last(self, env, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        stat = XenStat(hv)
        readings = []

        def app(env):
            yield d.vcpu.compute(50 * MS)

        def sampler(env):
            stat.cpu_percent_since_last(d.domid)  # baseline
            for _ in range(4):
                yield env.timeout(10 * MS)
                readings.append(stat.cpu_percent_since_last(d.domid))

        env.process(app(env))
        env.process(sampler(env))
        env.run(until=60 * MS)
        for pct in readings:
            assert pct == pytest.approx(100.0, abs=1.0)

    def test_percent_reflects_cap(self, env, hv):
        d = hv.create_domain("vm1", pcpus=[1], cap_percent=30)
        stat = XenStat(hv)
        readings = []

        def app(env):
            yield d.vcpu.compute(100 * MS)

        def sampler(env):
            stat.cpu_percent_since_last(d.domid)
            while env.now < 95 * MS:
                yield env.timeout(20 * MS)
                readings.append(stat.cpu_percent_since_last(d.domid))

        env.process(app(env))
        env.process(sampler(env))
        env.run(until=100 * MS)
        for pct in readings:
            assert pct == pytest.approx(30.0, abs=3.0)

    def test_first_read_is_zero(self, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        stat = XenStat(hv)
        assert stat.cpu_percent_since_last(d.domid) == 0.0

    def test_set_cap_via_xenstat(self, hv):
        d = hv.create_domain("vm1", pcpus=[1])
        stat = XenStat(hv)
        stat.set_cap(d.domid, 40)
        assert stat.get_cap(d.domid) == 40


class TestIntrospection:
    def test_dom0_can_map_guest_pages(self, env, hv):
        guest = hv.create_domain("vm1", pcpus=[1])
        pages = guest.address_space.extend(4)

        class Ring:
            producer_index = 7

        guest.address_space.translate(pages.start).content = Ring()
        views = xc_map_foreign_range(hv, hv.dom0, guest.domid, pages.start, 1)
        assert views[0].content.producer_index == 7

    def test_view_tracks_hardware_updates(self, env, hv):
        guest = hv.create_domain("vm1", pcpus=[1])
        pages = guest.address_space.extend(1)

        class Ring:
            producer_index = 0

        ring = Ring()
        guest.address_space.translate(pages.start).content = ring
        view = xc_map_foreign_range(hv, hv.dom0, guest.domid, pages.start, 1)[0]
        ring.producer_index = 42  # "HCA DMA write"
        assert view.content.producer_index == 42

    def test_unprivileged_domain_cannot_map(self, hv):
        guest1 = hv.create_domain("vm1", pcpus=[1])
        guest2 = hv.create_domain("vm2", pcpus=[2])
        guest2.address_space.extend(1)
        with pytest.raises(IntrospectionError, match="not privileged"):
            xc_map_foreign_range(hv, guest1, guest2.domid, 0, 1)

    def test_unmapped_gpfn_raises(self, hv):
        guest = hv.create_domain("vm1", pcpus=[1])
        with pytest.raises(IntrospectionError):
            xc_map_foreign_range(hv, hv.dom0, guest.domid, 0, 1)

    def test_views_are_read_only(self, env, hv):
        guest = hv.create_domain("vm1", pcpus=[1])
        pages = guest.address_space.extend(1)
        view = xc_map_foreign_range(hv, hv.dom0, guest.domid, pages.start, 1)[0]
        with pytest.raises(HypervisorError):
            view.content = "overwrite"


class TestIsolationScenario:
    def test_pinned_domains_do_not_contend_for_cpu(self, env, hv):
        """Each VM on its own core: CPU times are independent (paper setup)."""
        d1 = hv.create_domain("vm1", pcpus=[1])
        d2 = hv.create_domain("vm2", pcpus=[2])
        finish = {}

        def app(env, dom, tag):
            yield dom.vcpu.compute(5 * MS)
            finish[tag] = env.now

        env.process(app(env, d1, "a"))
        env.process(app(env, d2, "b"))
        env.run(until=20 * MS)
        assert finish["a"] == 5 * MS
        assert finish["b"] == 5 * MS
