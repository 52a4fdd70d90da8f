"""The HCA engine: doorbells in, packets out, CQEs back.

Each HCA owns its TPT, QPs, CQs and UAR pages, and drives one service
loop per active QP: fetch the head send WR, validate it, stream it onto
the fabric (max-min shared with every other active QP — the arbitration
that creates the paper's interference), deliver it at the responder,
and write completion entries after the RC ack returns.

Crucially, these loops run independently of guest CPU scheduling: once
a doorbell is rung the I/O proceeds even if the VM is descheduled.
What a capped VM *cannot* do is poll its CQ or post the next request —
which is exactly how CPU caps throttle I/O rate (paper §V-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.errors import FabricError, ProtectionFault, QPError
from repro.hw.fabric import FluidFabric
from repro.hw.host import Host, path_between
from repro.hw.memory import Buffer
from repro.ib.cq import CQE, CompletionQueue, WCOpcode, WCStatus
from repro.ib.mr import Access
from repro.ib.params import DEFAULT_FABRIC_PARAMS, FabricParams
from repro.ib.qp import Opcode, QPState, QueuePair, SendWR
from repro.ib.tpt import TPT
from repro.ib.uar import UARPage
from repro.sim.core import Environment
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain


class HCA:
    """One host channel adapter."""

    def __init__(
        self,
        env: Environment,
        host: Host,
        fabric: FluidFabric,
        params: FabricParams = DEFAULT_FABRIC_PARAMS,
        name: Optional[str] = None,
    ) -> None:
        if not host.is_attached:
            host.attach_fabric(fabric, params.link_bytes_per_sec)
        self.env = env
        self.host = host
        self.fabric = fabric
        self.params = params
        self.name = name or f"hca-{host.name}"
        self.tpt = TPT()
        self.qps: Dict[int, QueuePair] = {}
        self.cqs: Dict[int, CompletionQueue] = {}
        self.uars: Dict[int, UARPage] = {}
        self._next_qpn = 0x10
        self._next_cqn = 1
        self._next_uar = 1
        self._next_srqn = 1
        self.srqs: Dict[int, object] = {}
        self._busy_qps: Set[int] = set()
        #: Per-domain HW rate limiters ("newer generation InfiniBand
        #: cards allow setting a limit on bandwidth for different
        #: traffic flows", paper §I).  Each is a private fabric link all
        #: of the domain's sends traverse, capping aggregate bandwidth.
        self._domain_limiters: Dict[int, "NetLink"] = {}
        self._domain_limit_active: Dict[int, bool] = {}
        #: Ground-truth per-domain I/O counters (tests validate IBMon
        #: estimates against these; ResEx itself must not read them).
        self.bytes_sent_by_domain: Dict[int, int] = {}
        self.mtus_sent_by_domain: Dict[int, int] = {}
        #: Fault-injection hooks (:mod:`repro.faults`): extra latency
        #: added to every doorbell-to-WR-fetch step, and extra delay
        #: before each send-side completion is written.  Both 0 when
        #: the adapter is healthy.
        self.fault_doorbell_stall_ns: int = 0
        self.fault_cqe_delay_ns: int = 0
        host.hca = self

    # -- object creation (control path; costs charged by the split driver) ----
    def create_cq(self, domain: "Domain", depth: int = 1024) -> CompletionQueue:
        page = Buffer(domain.address_space, 4096, label="cq-ring")
        cq = CompletionQueue(self.env, self._next_cqn, depth, page)
        self.cqs[cq.cqn] = cq
        self._next_cqn += 1
        return cq

    def create_uar(self, domain: "Domain") -> UARPage:
        page = Buffer(domain.address_space, 4096, label="uar")
        uar = UARPage(self, self._next_uar, page)
        self.uars[uar.uar_index] = uar
        self._next_uar += 1
        return uar

    def create_qp(
        self,
        domain: "Domain",
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 128,
        max_recv_wr: int = 128,
        srq=None,
    ) -> QueuePair:
        qp = QueuePair(
            self, self._next_qpn, send_cq, recv_cq, max_send_wr,
            max_recv_wr, srq=srq,
        )
        qp.domid = domain.domid
        self.qps[qp.qp_num] = qp
        self._next_qpn += 1
        return qp

    def create_srq(self, domain: "Domain", max_wr: int = 1024):
        from repro.ib.srq import SharedReceiveQueue

        srq = SharedReceiveQueue(self, self._next_srqn, max_wr)
        srq.domid = domain.domid
        self.srqs[srq.srqn] = srq
        self._next_srqn += 1
        return srq

    def register_mr(self, buffer: Buffer, access: Access, domid: int):
        return self.tpt.register(buffer, access, domid)

    # -- HW flow controls (paper §I: per-flow bandwidth limits/priority) ----
    def set_domain_rate_limit(
        self, domid: int, bytes_per_sec: Optional[float]
    ) -> None:
        """Cap the aggregate send bandwidth of one domain's QPs.

        ``None`` clears the limit.  Modeled as a private fabric link of
        the given capacity that every send from the domain traverses.
        """
        if bytes_per_sec is None:
            self._domain_limit_active[domid] = False
            return
        if bytes_per_sec <= 0:
            raise FabricError("rate limit must be > 0 (or None to clear)")
        name = f"{self.name}.dom{domid}-limit"
        if domid in self._domain_limiters:
            self.fabric.set_link_capacity(name, bytes_per_sec)
        else:
            self._domain_limiters[domid] = self.fabric.add_link(
                name, bytes_per_sec
            )
        self._domain_limit_active[domid] = True

    def set_qp_priority(self, qp: QueuePair, weight: float) -> None:
        """Arbitration priority: link shares scale with this weight."""
        if weight <= 0:
            raise FabricError(f"priority weight must be > 0, got {weight}")
        qp.flow_weight = weight

    def _send_path(self, qp: QueuePair, remote_hca: "HCA"):
        path = path_between(self.host, remote_hca.host)
        domid = qp.domid if qp.domid is not None else -1
        if self._domain_limit_active.get(domid, False):
            path = [self._domain_limiters[domid]] + path
        return path

    @staticmethod
    def connect(qp_a: QueuePair, qp_b: QueuePair) -> None:
        """RC connection establishment between two QPs (possibly on
        different HCAs)."""
        qp_a.to_init()
        qp_b.to_init()
        qp_a.to_rtr(qp_b)
        qp_b.to_rtr(qp_a)
        qp_a.to_rts()
        qp_b.to_rts()

    # -- data path ----------------------------------------------------------------
    def on_doorbell(self, qp_num: int) -> None:
        """A doorbell was rung: ensure the QP's service loop is running."""
        qp = self.qps.get(qp_num)
        if qp is None:
            raise QPError(f"doorbell for unknown QP {qp_num}")
        if qp_num in self._busy_qps or not qp.send_queue:
            return
        self._busy_qps.add(qp_num)
        self.env.process(self._service_qp(qp), name=f"{self.name}-qp{qp_num}")

    def drain_rnr_backlog(self, sink) -> None:
        """Wake senders blocked on receiver-not-ready, FIFO.

        ``sink`` is any object with recv_queue/rnr_backlog (a QP or an
        SRQ).  Each woken sender consumes exactly one recv WR when it
        resumes, so only (posted recvs - already-woken waiters) more may
        wake.
        """
        claimed = sum(1 for _, gate in sink.rnr_backlog if gate.triggered)
        budget = len(sink.recv_queue) - claimed
        for _, gate in sink.rnr_backlog:
            if budget <= 0:
                break
            if not gate.triggered:
                gate.succeed()
                budget -= 1

    def _service_qp(self, qp: QueuePair):
        p = self.params
        env = self.env
        while qp.send_queue:
            if qp.state is QPState.ERROR:
                self._flush_send_queue(qp)
                break
            wr = qp.send_queue[0]
            wr_start = env.now
            # Doorbell propagation + WR descriptor fetch (plus any
            # injected doorbell stall while a fault is active).
            yield env.timeout(
                p.doorbell_ns + p.wr_fetch_ns + self.fault_doorbell_stall_ns
            )
            try:
                yield from self._execute_wr(qp, wr)
            except ProtectionFault:
                qp.to_error()
                self._complete_send(
                    qp, wr, WCStatus.LOC_PROT_ERR, force_signal=True
                )
                qp.send_queue.popleft()
                self._flush_send_queue(qp)
                tel = env.telemetry
                if tel.enabled:
                    tel.span(
                        "hca",
                        wr.opcode.name,
                        wr_start,
                        env.now,
                        lane=f"{self.name}.qp{qp.qp_num}",
                        qp_num=qp.qp_num,
                        domid=qp.domid,
                        bytes=wr.length,
                        status="LOC_PROT_ERR",
                    )
                break
            qp.send_queue.popleft()
            tel = env.telemetry
            if tel.enabled:
                tel.span(
                    "hca",
                    wr.opcode.name,
                    wr_start,
                    env.now,
                    lane=f"{self.name}.qp{qp.qp_num}",
                    qp_num=qp.qp_num,
                    domid=qp.domid,
                    bytes=wr.length,
                    status="SUCCESS",
                )
        self._busy_qps.discard(qp.qp_num)
        # A post may have raced with loop exit.
        if qp.send_queue and qp.state is QPState.RTS:
            self.on_doorbell(qp.qp_num)

    def _execute_wr(self, qp: QueuePair, wr: SendWR):
        p = self.params
        env = self.env
        peer = qp.peer
        if peer is None:
            raise QPError(f"QP {qp.qp_num} has no connected peer")
        remote_hca: HCA = peer.hca

        if peer.state is QPState.ERROR:
            # The peer was torn down (e.g. its domain destroyed): the RC
            # retry protocol gives up and errors the work request.
            raise ProtectionFault("peer QP is in the error state")

        if wr.opcode is Opcode.RDMA_READ:
            yield from self._execute_rdma_read(qp, wr)
            return

        # Remote-side validation happens before any data moves for RDMA
        # writes (the responder TPT rejects bad keys at the first packet).
        if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
            if wr.remote_rkey is None:
                raise ProtectionFault("RDMA write without rkey")
            remote_mr = remote_hca.tpt.lookup_remote(
                wr.remote_rkey, Access.REMOTE_WRITE
            )
            remote_mr.check_range(wr.remote_offset, wr.length)

        # Stream the payload: serialization shared (weighted) max-min on
        # the path, through the domain's HW rate limiter when one is set.
        transfer = self.fabric.submit(
            self._send_path(qp, remote_hca),
            wr.length,
            flow_label=f"qp{qp.qp_num}",
            weight=qp.flow_weight,
        )
        yield transfer.done
        self._account(qp, wr.length)
        # Last packet propagates to the responder.
        yield env.timeout(p.oneway_ns)

        if wr.opcode is Opcode.SEND:
            yield from self._deliver_send(qp, peer, wr)
        elif wr.opcode is Opcode.RDMA_WRITE_WITH_IMM:
            yield env.timeout(p.cqe_write_ns)
            peer.recv_cq.hw_push(
                CQE(
                    wr_id=wr.wr_id,
                    qp_num=peer.qp_num,
                    opcode=WCOpcode.RECV_RDMA_WITH_IMM,
                    status=WCStatus.SUCCESS,
                    byte_len=wr.length,
                    imm_data=wr.imm_data,
                    timestamp_ns=env.now,
                    payload=wr.payload,
                )
            )
        # Plain RDMA_WRITE: silent at the responder.

        # RC ack returns to the requester.
        yield env.timeout(p.ack_turnaround_ns + p.oneway_ns)
        if self.fault_cqe_delay_ns:
            yield env.timeout(self.fault_cqe_delay_ns)
        self._complete_send(qp, wr, WCStatus.SUCCESS)

    def _deliver_send(self, qp: QueuePair, peer: QueuePair, wr: SendWR):
        p = self.params
        env = self.env
        # Receive WRs come from the peer's SRQ when it has one.
        sink = peer.srq if peer.srq is not None else peer
        if not sink.recv_queue or sink.rnr_backlog:
            # Receiver not ready: block until a recv WR is posted (models
            # RNR NAK + retry without bounding the retry count).
            gate = Event(env)
            sink.rnr_backlog.append((wr, gate))
            yield gate
            sink.rnr_backlog.remove((wr, gate))
        recv_wr = sink.recv_queue.popleft()
        if recv_wr.length < wr.length:
            # Message longer than the landing buffer: responder error.
            raise ProtectionFault(
                f"SEND of {wr.length}B exceeds recv buffer {recv_wr.length}B"
            )
        yield env.timeout(p.cqe_write_ns)
        peer.recv_cq.hw_push(
            CQE(
                wr_id=recv_wr.wr_id,
                qp_num=peer.qp_num,
                opcode=WCOpcode.RECV,
                status=WCStatus.SUCCESS,
                byte_len=wr.length,
                imm_data=wr.imm_data,
                timestamp_ns=env.now,
                payload=wr.payload,
            )
        )

    def _execute_rdma_read(self, qp: QueuePair, wr: SendWR):
        p = self.params
        env = self.env
        peer = qp.peer
        remote_hca: HCA = peer.hca
        if wr.remote_rkey is None:
            raise ProtectionFault("RDMA read without rkey")
        remote_mr = remote_hca.tpt.lookup_remote(wr.remote_rkey, Access.REMOTE_READ)
        remote_mr.check_range(wr.remote_offset, wr.length)
        # Read request travels to the responder...
        yield env.timeout(p.oneway_ns)
        # ...which streams the data back on the reverse path.
        transfer = self.fabric.submit(
            path_between(remote_hca.host, self.host),
            wr.length,
            flow_label=f"qp{qp.qp_num}-rdrsp",
        )
        yield transfer.done
        yield env.timeout(p.oneway_ns)
        if self.fault_cqe_delay_ns:
            yield env.timeout(self.fault_cqe_delay_ns)
        self._complete_send(qp, wr, WCStatus.SUCCESS, opcode=WCOpcode.RDMA_READ)
        # Reads consume the *responder's* egress; account to the requester
        # domain anyway: it caused the traffic.
        self._account(qp, wr.length)

    def _complete_send(
        self,
        qp: QueuePair,
        wr: SendWR,
        status: WCStatus,
        force_signal: bool = False,
        opcode: Optional[WCOpcode] = None,
    ) -> None:
        qp.sends_completed += 1
        if not (wr.signaled or force_signal):
            return
        if opcode is None:
            opcode = {
                Opcode.SEND: WCOpcode.SEND,
                Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
                Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
                Opcode.RDMA_READ: WCOpcode.RDMA_READ,
            }[wr.opcode]
        qp.send_cq.hw_push(
            CQE(
                wr_id=wr.wr_id,
                qp_num=qp.qp_num,
                opcode=opcode,
                status=status,
                byte_len=wr.length,
                imm_data=wr.imm_data,
                timestamp_ns=self.env.now,
            )
        )

    def _flush_send_queue(self, qp: QueuePair) -> None:
        """Error state: flush pending WRs with error completions."""
        while qp.send_queue:
            wr = qp.send_queue.popleft()
            self._complete_send(qp, wr, WCStatus.LOC_PROT_ERR, force_signal=True)

    def _account(self, qp: QueuePair, nbytes: int) -> None:
        qp.bytes_sent += nbytes
        domid = qp.domid if qp.domid is not None else -1
        self.bytes_sent_by_domain[domid] = (
            self.bytes_sent_by_domain.get(domid, 0) + nbytes
        )
        self.mtus_sent_by_domain[domid] = self.mtus_sent_by_domain.get(
            domid, 0
        ) + self.params.n_mtus(nbytes)

    def __repr__(self) -> str:
        return f"<HCA {self.name} qps={len(self.qps)} cqs={len(self.cqs)}>"
