"""Fan-in BenchEx: one trading server VM serving many client VMs.

The paper describes BenchEx as "multiple clients post transactions and
request feeds from a trading server hosted by the Exchange" with a
strict FCFS queue (§IV).  This module is that N:1 configuration: the
server VM owns one shared receive queue feeding QPs from every client,
processes the pooled recv CQ in arrival order, and responds on the
originating client's QP (identified by the CQE's qp_num).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.benchex.client import BenchExClient
from repro.benchex.config import BenchExConfig
from repro.benchex.latency import LatencyRecord
from repro.benchex.reporting import LatencyAgent
from repro.errors import BenchmarkError
from repro.finance.workload import compute_cost_ns
from repro.ib.cq import WCStatus
from repro.ib.mr import Access
from repro.ib.verbs import connect
from repro.units import ns_to_us


class FanInServer:
    """FCFS trading server multiplexing many client QPs over one SRQ."""

    RECV_HEADROOM = 4

    def __init__(self, config: BenchExConfig, ctx, agent: Optional[LatencyAgent] = None) -> None:
        self.config = config
        self.ctx = ctx
        self.agent = agent
        self.qps: List = []
        self.srq = None
        self.recv_cq = None
        self.send_cq = None
        self.records: List[LatencyRecord] = []
        #: Requests served per client qp_num.
        self.served_by_qp: Dict[int, int] = {}
        self.requests_served = 0
        self._send_mr = None
        self._recv_mr = None

    def setup(self, frontend, n_clients: int):
        """Create the SRQ, CQs and per-client QPs (process generator)."""
        cfg = self.config
        self.recv_cq = yield from frontend.create_cq(self.ctx)
        self.send_cq = yield from frontend.create_cq(self.ctx)
        self.srq = yield from frontend.create_srq(self.ctx)
        for _ in range(n_clients):
            qp = yield from frontend.create_qp(
                self.ctx, self.send_cq, self.recv_cq, srq=self.srq
            )
            self.qps.append(qp)
        self._send_mr = yield from frontend.reg_mr(
            self.ctx, cfg.buffer_bytes, Access.full(), label="fanin-resp"
        )
        self._recv_mr = yield from frontend.reg_mr(
            self.ctx, cfg.buffer_bytes, Access.full(), label="fanin-req"
        )
        pool = n_clients * (cfg.pipeline_depth + self.RECV_HEADROOM)
        for _ in range(pool):
            yield from self.ctx.post_srq_recv(self.srq, self._recv_mr)

    def _await_cq(self, cq):
        if self.config.completion_mode == "event":
            return (yield from self.ctx.wait_cq(cq))
        return (yield from self.ctx.poll_cq_blocking(cq))

    def run(self):
        """Serve requests FCFS across all clients (process generator)."""
        if self.srq is None:
            raise BenchmarkError("setup() must run before run()")
        cfg = self.config
        env = self.ctx.domain.env
        vcpu = self.ctx.domain.vcpu
        qp_by_num = {qp.qp_num: qp for qp in self.qps}
        backlog = []
        served = 0

        while cfg.request_limit is None or served < cfg.request_limit:
            cycle_start = env.now
            if backlog:
                cqe = backlog.pop(0)
            else:
                cqes, _ = yield from self._await_cq(self.recv_cq)
                cqe = cqes[0]
                backlog.extend(cqes[1:])
            t_request = env.now
            if cqe.status is not WCStatus.SUCCESS:
                raise BenchmarkError(f"fan-in request failed: {cqe.status}")
            qp = qp_by_num[cqe.qp_num]

            yield vcpu.compute(compute_cost_ns(cqe.payload.n_options))
            t_computed = env.now

            yield from self.ctx.post_srq_recv(self.srq, self._recv_mr)
            yield from self.ctx.post_send(
                qp,
                self._send_mr,
                length=cfg.buffer_bytes,
                payload=None,
                imm_data=cqe.imm_data,
            )
            yield from self._await_cq(self.send_cq)
            t_responded = env.now

            served += 1
            self.requests_served = served
            self.served_by_qp[cqe.qp_num] = self.served_by_qp.get(cqe.qp_num, 0) + 1
            if served <= cfg.warmup_requests:
                continue
            record = LatencyRecord(
                request_id=served,
                t_cycle_start=cycle_start,
                ptime_ns=t_request - cycle_start,
                ctime_ns=t_computed - t_request,
                wtime_ns=t_responded - t_computed,
            )
            self.records.append(record)
            if self.agent is not None:
                yield vcpu.compute(cfg.reporting_cost_ns)
                self.agent.report(ns_to_us(record.total_ns))

    def latencies_us(self) -> np.ndarray:
        return np.array([r.total_us for r in self.records], dtype=np.float64)


class BenchExFanIn:
    """A deployed fan-in instance: one server VM, ``n_clients`` client VMs."""

    def __init__(
        self,
        bed,
        server_node,
        client_node,
        config: BenchExConfig,
        n_clients: int,
        with_agent: bool = False,
    ) -> None:
        if n_clients < 1:
            raise BenchmarkError("n_clients must be >= 1")
        self.bed = bed
        self.config = config
        self.n_clients = n_clients
        self.server_dom = server_node.create_guest(f"{config.name}-server")
        self.server_fe = server_node.frontend(self.server_dom)
        self.client_doms = [
            client_node.create_guest(f"{config.name}-client{i}")
            for i in range(n_clients)
        ]
        self.client_fes = [
            client_node.frontend(dom) for dom in self.client_doms
        ]
        self.agent = LatencyAgent(self.server_dom.domid) if with_agent else None
        self.server: Optional[FanInServer] = None
        self.clients: List[BenchExClient] = []
        self.server_proc = None
        self.client_procs: List = []

    def deploy(self):
        """Process generator: set up the server, clients, connections."""
        cfg = self.config
        server_ctx = yield from self.server_fe.open_context()
        self.server = FanInServer(cfg, server_ctx, agent=self.agent)
        yield from self.server.setup(self.server_fe, self.n_clients)

        for i, fe in enumerate(self.client_fes):
            ctx = yield from fe.open_context()
            send_cq = yield from fe.create_cq(ctx)
            recv_cq = yield from fe.create_cq(ctx)
            qp = yield from fe.create_qp(ctx, send_cq, recv_cq)
            yield from connect(server_ctx, self.server.qps[i], ctx, qp)
            client = BenchExClient(
                cfg, ctx, qp, self.bed.rng.stream(f"{cfg.name}/client{i}")
            )
            yield from client.setup(fe)
            self.clients.append(client)

    def start(self) -> None:
        if self.server is None or len(self.clients) != self.n_clients:
            raise BenchmarkError("deploy() must complete before start()")
        env = self.bed.env
        self.server_proc = env.process(
            self.server.run(), name=f"{self.config.name}-server"
        )
        self.client_procs = [
            env.process(c.run(), name=f"{self.config.name}-client{i}")
            for i, c in enumerate(self.clients)
        ]

    def client_latencies_us(self) -> np.ndarray:
        if not self.clients:
            return np.array([])
        return np.concatenate([c.latency_array() for c in self.clients])
