"""Weighted max-min sharing, runtime capacity changes, rate limiters."""

import pytest

from repro.errors import FabricError
from repro.hw import FluidFabric, maxmin_rates
from repro.hw.fabric import Transfer
from repro.sim import Environment
from repro.units import SEC, GiB, KiB

GB_PER_S = float(GiB)


@pytest.fixture
def env():
    return Environment()


class TestWeightedMaxMin:
    def _mk(self, path, weight=1.0):
        return Transfer(0, tuple(path), 1000, None, 0, "", weight=weight)

    def test_weighted_split(self, env):
        fabric = FluidFabric(env)
        link = fabric.add_link("l", 3e9)
        heavy = self._mk([link], weight=2.0)
        light = self._mk([link], weight=1.0)
        rates = maxmin_rates([heavy, light], lambda l: l.capacity_bytes_per_ns)
        assert rates[heavy] == pytest.approx(2.0, rel=1e-9)
        assert rates[light] == pytest.approx(1.0, rel=1e-9)

    def test_unit_weights_reduce_to_plain_maxmin(self, env):
        fabric = FluidFabric(env)
        link = fabric.add_link("l", 2e9)
        a, b = self._mk([link]), self._mk([link])
        rates = maxmin_rates([a, b], lambda l: l.capacity_bytes_per_ns)
        assert rates[a] == rates[b] == pytest.approx(1.0)

    def test_invalid_weight_rejected(self, env):
        fabric = FluidFabric(env)
        link = fabric.add_link("l", 1e9)
        bad = self._mk([link], weight=0.0)
        with pytest.raises(FabricError):
            maxmin_rates([bad], lambda l: l.capacity_bytes_per_ns)

    def test_weighted_completion_times(self, env):
        """A weight-3 transfer finishes ~3x the data in the same time."""
        fabric = FluidFabric(env)
        link = fabric.add_link("l", GB_PER_S)
        fast = fabric.submit([link], 192 * KiB, "fast", weight=3.0)
        slow = fabric.submit([link], 64 * KiB, "slow", weight=1.0)
        env.run(until=env.all_of([fast.done, slow.done]))
        # Both finish together: rates were 3:1 and sizes 3:1.
        assert fast.completed_at == pytest.approx(slow.completed_at, rel=0.01)


class TestRuntimeCapacityChange:
    def test_capacity_change_mid_transfer(self, env):
        fabric = FluidFabric(env)
        link = fabric.add_link("l", GB_PER_S)
        results = {}

        def scenario(env):
            t = fabric.submit([link], 128 * KiB)
            # Let half of it pass, then halve the link.
            yield env.timeout(int(64 * KiB * SEC / GB_PER_S))
            fabric.set_link_capacity("l", GB_PER_S / 2)
            yield t.done
            results["t"] = env.now

        env.process(scenario(env))
        env.run()
        # First half at full rate (u), second half at half rate (2u).
        u = 64 * KiB * SEC / GB_PER_S
        assert results["t"] == pytest.approx(3 * u, rel=0.01)

    def test_invalid_capacity(self, env):
        fabric = FluidFabric(env)
        fabric.add_link("l", GB_PER_S)
        with pytest.raises(FabricError):
            fabric.set_link_capacity("l", 0)


class TestDomainRateLimiters:
    def make_rig(self):
        from repro.experiments.platform import Testbed

        bed = Testbed.paper_testbed(seed=4)
        return bed, bed.node("server-host"), bed.node("client-host")

    def test_limit_throttles_throughput(self):
        from repro.benchex import BenchExConfig, BenchExPair, run_pairs

        bed, s, c = self.make_rig()
        pair = BenchExPair(
            bed, s, c, BenchExConfig(name="p", request_limit=30, warmup_requests=5)
        )
        # Limit the server domain to 1/4 of the link.
        s.hca.set_domain_rate_limit(pair.server_dom.domid, GB_PER_S / 4)
        run_pairs(bed, [pair])
        lat = pair.server.latencies_us()
        # Response WTime quadruples (~65us -> ~260us): total well above base.
        assert lat.mean() > 350.0

    def test_limit_clear_restores(self):
        from repro.benchex import BenchExConfig, BenchExPair, run_pairs

        bed, s, c = self.make_rig()
        pair = BenchExPair(
            bed, s, c, BenchExConfig(name="p", request_limit=30, warmup_requests=5)
        )
        s.hca.set_domain_rate_limit(pair.server_dom.domid, GB_PER_S / 4)
        s.hca.set_domain_rate_limit(pair.server_dom.domid, None)
        run_pairs(bed, [pair])
        assert pair.server.latencies_us().mean() == pytest.approx(209.0, abs=6.0)

    def test_limit_validation(self):
        _, s, _ = self.make_rig()
        with pytest.raises(FabricError):
            s.hca.set_domain_rate_limit(1, 0)

    def test_qp_priority_validation(self):
        bed, s, c = self.make_rig()
        dom = s.create_guest("vm")
        state = {}

        def scenario(env):
            fe = s.frontend(dom)
            ctx = yield from fe.open_context()
            cq = yield from fe.create_cq(ctx)
            state["qp"] = yield from fe.create_qp(ctx, cq)

        proc = bed.env.process(scenario(bed.env))
        bed.env.run(until=proc)
        s.hca.set_qp_priority(state["qp"], 4.0)
        assert state["qp"].flow_weight == 4.0
        with pytest.raises(FabricError):
            s.hca.set_qp_priority(state["qp"], 0)
