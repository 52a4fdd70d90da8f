"""Tests for UAR doorbell pages, non-blocking polls, and host paths."""

import pytest

from repro.errors import ConfigError, QPError
from repro.experiments.platform import Testbed
from repro.hw import FluidFabric, Host, path_between
from repro.ib import Access
from repro.sim import Environment
from repro.units import KiB


class TestUAR:
    def setup_ctx(self):
        bed = Testbed.paper_testbed(seed=2)
        s = bed.node("server-host")
        dom = s.create_guest("vm")
        state = {}

        def scenario(env):
            fe = s.frontend(dom)
            state["ctx"] = yield from fe.open_context()

        proc = bed.env.process(scenario(bed.env))
        bed.env.run(until=proc)
        return bed, s, dom, state["ctx"]

    def test_doorbell_counts_recorded(self):
        bed, s, dom, ctx = self.setup_ctx()
        uar = ctx.uar
        assert uar.total_doorbells() == 0
        # Ringing for an unknown QP is a hardware-level error.
        with pytest.raises(QPError, match="unknown QP"):
            uar.ring(0xDEAD)

    def test_uar_page_is_introspectable(self):
        bed, s, dom, ctx = self.setup_ctx()
        frame = dom.address_space.translate(ctx.uar.page.gpfn_start)
        assert frame.content is ctx.uar

    def test_doorbells_counted_per_qp(self):
        bed = Testbed.paper_testbed(seed=2)
        s, c = bed.node("server-host"), bed.node("client-host")
        sdom, cdom = s.create_guest("s"), c.create_guest("c")
        state = {}

        def scenario(env):
            from repro.ib import connect

            sfe, cfe = s.frontend(sdom), c.frontend(cdom)
            sctx = yield from sfe.open_context()
            cctx = yield from cfe.open_context()
            scq = yield from sfe.create_cq(sctx)
            ccq = yield from cfe.create_cq(cctx)
            sqp = yield from sfe.create_qp(sctx, scq)
            cqp = yield from cfe.create_qp(cctx, ccq)
            yield from connect(sctx, sqp, cctx, cqp)
            mr = yield from cfe.reg_mr(cctx, KiB, Access.full())
            rmr = yield from sfe.reg_mr(sctx, KiB, Access.full())
            for _ in range(3):
                yield from sctx.post_recv(sqp, rmr)
            for _ in range(3):
                yield from cctx.post_send(cqp, mr)
            state["uar"] = cctx.uar
            state["qpn"] = cqp.qp_num

        proc = bed.env.process(scenario(bed.env))
        bed.env.run(until=proc)
        assert state["uar"].doorbell_counts[state["qpn"]] == 3


class TestHostPaths:
    def test_unattached_host_path_rejected(self):
        env = Environment()
        a = Host("a")
        b = Host("b")
        with pytest.raises(ConfigError):
            path_between(a, b)

    def test_loopback_uses_both_directions(self):
        env = Environment()
        fabric = FluidFabric(env)
        a = Host("a")
        a.attach_fabric(fabric, 1e9)
        path = path_between(a, a)
        assert path == [a.tx_link, a.rx_link]

    def test_host_validation(self):
        with pytest.raises(ConfigError):
            Host("bad", ncpus=0)
