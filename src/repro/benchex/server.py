"""The BenchEx trading server.

One server instance runs inside one VM and serves one client over a
connected RC QP, first-come-first-served (exchange semantics: each
transaction may change the outcome of the next, paper §IV).

Per-request cycle and its measured decomposition::

    poll recv CQ  ──────────────► PTime  (request observation)
    charge the batch's CPU ─────► CTime  (n_options × NS_PER_OPTION)
    post response SEND
    poll send CQ  ──────────────► WTime  (response on the wire + ack)

The server keeps several receive WRs pre-posted and replenishes after
consuming each, like any verbs application.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.benchex.config import BenchExConfig
from repro.benchex.latency import LatencyRecord
from repro.benchex.reporting import LatencyAgent
from repro.errors import BenchmarkError
from repro.finance.workload import PricingRequest, compute_cost_ns
from repro.ib.cq import WCStatus
from repro.ib.mr import Access
from repro.ib.qp import QueuePair
from repro.ib.verbs import IBContext
from repro.units import ns_to_us


class BenchExServer:
    """Server half of a BenchEx pair."""

    #: Receive WRs kept pre-posted beyond the client's window.
    RECV_HEADROOM = 2

    def __init__(
        self,
        config: BenchExConfig,
        ctx: IBContext,
        qp: QueuePair,
        agent: Optional[LatencyAgent] = None,
    ) -> None:
        self.config = config
        self.ctx = ctx
        self.qp = qp
        self.agent = agent
        #: Completed-request records (post-warmup).
        self.records: List[LatencyRecord] = []
        self.requests_served = 0
        self.responses_failed = 0
        self._send_mr = None
        self._recv_mr = None

    # -- setup -----------------------------------------------------------------
    def setup(self, frontend):
        """Register buffers and pre-post receives (process generator)."""
        cfg = self.config
        self._send_mr = yield from frontend.reg_mr(
            self.ctx, cfg.buffer_bytes, Access.full(), label=f"{cfg.name}-resp"
        )
        self._recv_mr = yield from frontend.reg_mr(
            self.ctx, cfg.buffer_bytes, Access.full(), label=f"{cfg.name}-req"
        )
        for _ in range(cfg.pipeline_depth + self.RECV_HEADROOM):
            yield from self.ctx.post_recv(self.qp, self._recv_mr)

    def _await_cq(self, cq):
        """Completion wait in the configured mode (poll vs event)."""
        if self.config.completion_mode == "event":
            return (yield from self.ctx.wait_cq(cq))
        return (yield from self.ctx.poll_cq_blocking(cq))

    # -- main loop ---------------------------------------------------------------
    def run(self):
        """Serve requests until the configured limit (process generator)."""
        if self._send_mr is None:
            raise BenchmarkError("setup() must run before run()")
        cfg = self.config
        env = self.ctx.domain.env
        vcpu = self.ctx.domain.vcpu
        served = 0
        backlog = []  # CQEs polled but not yet served (batched poll)

        while cfg.request_limit is None or served < cfg.request_limit:
            cycle_start = env.now

            # --- PTime: wait for the next transaction -------------------
            if backlog:
                cqe = backlog.pop(0)
            else:
                cqes, _polled = yield from self._await_cq(self.qp.recv_cq)
                cqe = cqes[0]
                backlog.extend(cqes[1:])
            t_request = env.now
            if cqe.status is not WCStatus.SUCCESS:
                raise BenchmarkError(
                    f"server {cfg.name}: request completion failed: {cqe.status}"
                )

            # --- CTime: the batch's calibrated pricing cost ---------------
            request: PricingRequest = cqe.payload
            yield vcpu.compute(compute_cost_ns(request.n_options))
            t_computed = env.now

            # Replenish the consumed receive before responding.
            yield from self.ctx.post_recv(self.qp, self._recv_mr)

            # --- WTime: response on the wire ------------------------------
            yield from self.ctx.post_send(
                self.qp,
                self._send_mr,
                length=cfg.buffer_bytes,
                payload=None,
                imm_data=cqe.imm_data,
            )
            send_cqes, _polled = yield from self._await_cq(self.qp.send_cq)
            t_responded = env.now
            if any(c.status is not WCStatus.SUCCESS for c in send_cqes):
                self.responses_failed += 1

            served += 1
            self.requests_served = served
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

            tel = env.telemetry
            if tel.enabled:
                lane = cfg.name
                tel.span(
                    "benchex", "request", cycle_start, t_responded,
                    lane=lane, request_id=served, total_us=record.total_us,
                )
                tel.span("benchex", "PTime", cycle_start, t_request, lane=lane)
                tel.span("benchex", "CTime", t_request, t_computed, lane=lane)
                tel.span("benchex", "WTime", t_computed, t_responded, lane=lane)

            # --- report to the in-VM agent (costs ~10 us of guest CPU) ----
            if self.agent is not None:
                yield vcpu.compute(cfg.reporting_cost_ns)
                self.agent.report(ns_to_us(record.total_ns))

    def latencies_us(self) -> np.ndarray:
        """Total server-side latency per request (us)."""
        return np.array([r.total_us for r in self.records], dtype=np.float64)
