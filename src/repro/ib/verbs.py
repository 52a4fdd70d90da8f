"""Verbs-level API: what guest applications program against.

An :class:`IBContext` belongs to one domain.  Fast-path operations
(post/poll) charge the domain's VCPU and talk to the HCA directly —
VMM-bypass — so a CPU-capped VM posts and polls slower, which is the
throttle ResEx exploits.  Control-path operations (region registration,
QP/CQ creation, connection) go through the dom0 backend driver and are
created by the split driver (:mod:`repro.xen.splitdriver`).

All time-consuming methods are generators: call them from a process as
``result = yield from ctx.post_send(...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import QPError
from repro.ib.cq import CQE, CompletionQueue
from repro.ib.mr import MemoryRegion
from repro.ib.qp import Opcode, QueuePair, RecvWR, SendWR
from repro.ib.uar import UARPage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ib.hca import HCA
    from repro.xen.domain import Domain


class IBContext:
    """Per-domain verbs context (device context + protection domain)."""

    def __init__(self, domain: "Domain", hca: "HCA", uar: UARPage) -> None:
        self.domain = domain
        self.hca = hca
        self.uar = uar
        self._next_wr_id = 1
        #: Objects owned by this context (for enumeration / teardown).
        self.mrs: List[MemoryRegion] = []
        self.cqs: List[CompletionQueue] = []
        self.qps: List[QueuePair] = []
        self.srqs: List[object] = []

    @property
    def params(self):
        return self.hca.params

    def next_wr_id(self) -> int:
        wr_id = self._next_wr_id
        self._next_wr_id += 1
        return wr_id

    # -- fast path (VMM-bypass) -----------------------------------------------
    def post_send(
        self,
        qp: QueuePair,
        mr: MemoryRegion,
        length: Optional[int] = None,
        opcode: Opcode = Opcode.SEND,
        remote_rkey: Optional[int] = None,
        remote_offset: int = 0,
        imm_data: Optional[int] = None,
        signaled: bool = True,
        wr_id: Optional[int] = None,
        payload: object = None,
    ):
        """Post a send WR and ring the doorbell.  Returns the wr_id."""
        if qp not in self.qps:
            raise QPError("QP does not belong to this context")
        yield self.domain.vcpu.compute(self.params.post_send_cpu_ns)
        wr = SendWR(
            wr_id=self.next_wr_id() if wr_id is None else wr_id,
            opcode=opcode,
            mr=mr,
            length=length,
            remote_rkey=remote_rkey,
            remote_offset=remote_offset,
            imm_data=imm_data,
            signaled=signaled,
            payload=payload,
        )
        qp.post_send(wr)
        self.uar.ring(qp.qp_num)
        return wr.wr_id

    def post_recv(
        self,
        qp: QueuePair,
        mr: MemoryRegion,
        length: Optional[int] = None,
        wr_id: Optional[int] = None,
    ):
        """Post a receive WR.  Returns the wr_id."""
        if qp not in self.qps:
            raise QPError("QP does not belong to this context")
        yield self.domain.vcpu.compute(self.params.post_recv_cpu_ns)
        wr = RecvWR(
            wr_id=self.next_wr_id() if wr_id is None else wr_id,
            mr=mr,
            length=length,
        )
        qp.post_recv(wr)
        return wr.wr_id

    def post_srq_recv(
        self,
        srq,
        mr: MemoryRegion,
        length: Optional[int] = None,
        wr_id: Optional[int] = None,
    ):
        """Post a receive WR to a shared receive queue.  Returns wr_id."""
        if srq not in self.srqs:
            raise QPError("SRQ does not belong to this context")
        yield self.domain.vcpu.compute(self.params.post_recv_cpu_ns)
        wr = RecvWR(
            wr_id=self.next_wr_id() if wr_id is None else wr_id,
            mr=mr,
            length=length,
        )
        srq.post_recv(wr)
        return wr.wr_id

    def poll_cq_blocking(
        self, cq: CompletionQueue, max_entries: int = 16
    ):
        """Busy-poll until at least one CQE is available.

        Returns ``(cqes, polled_ns)`` where ``polled_ns`` is the CPU
        time burned polling — the raw ingredient of BenchEx's PTime.
        """
        polled_ns = yield self.domain.vcpu.poll_until(
            cq.arrival_event(), check_cost_ns=self.params.poll_check_cpu_ns
        )
        cqes = cq.poll(max_entries)
        return cqes, polled_ns

    def wait_cq(self, cq: CompletionQueue, max_entries: int = 16):
        """Event-driven completion wait (completion channel).

        The caller sleeps — burning no CPU — until a CQE lands, then
        pays the interrupt/wakeup cost (which, like any guest work, only
        runs when the VCPU is scheduled).  Lower CPU use than busy
        polling at the price of interrupt latency — and, crucially for
        ResEx, it decouples the VM's CPU consumption from its I/O rate
        (see the completion-mode ablation bench).

        Returns ``(cqes, cpu_burned_ns)`` like :meth:`poll_cq_blocking`.
        """
        ev = cq.arrival_event()
        if not ev.triggered:
            yield ev
        cost = self.params.interrupt_cost_ns
        yield self.domain.vcpu.compute(cost)
        return cq.poll(max_entries), cost


def connect(ctx_a: IBContext, qp_a: QueuePair, ctx_b: IBContext, qp_b: QueuePair):
    """Out-of-band RC connection setup between two contexts' QPs.

    Charges both sides' control-path costs (exchange of QP numbers and
    the INIT->RTR->RTS transitions go through each side's backend).
    """
    p = ctx_a.params
    yield ctx_a.domain.vcpu.compute(p.hypercall_ns)
    yield ctx_b.domain.vcpu.compute(p.hypercall_ns)
    from repro.ib.hca import HCA  # local import to avoid a cycle

    HCA.connect(qp_a, qp_b)
    return qp_a, qp_b
