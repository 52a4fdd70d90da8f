"""Para-virtualized InfiniBand split driver (frontend/backend).

Control-path operations — opening a device context, registering memory,
creating CQs and QPs — travel from the guest frontend through a shared
ring to the backend driver in dom0, which performs the privileged HCA
operations (paper §III, split device driver model of [7], adapted for
IB as in [12]).  Data-path operations bypass this entirely.

The latency split matters for fidelity: control ops cost tens of
microseconds and burn both guest and dom0 CPU, but happen only at
setup; steady-state traffic never touches dom0 — which is precisely
why the hypervisor cannot see it and IBMon must introspect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import HypervisorError
from repro.hw.memory import Buffer
from repro.ib.cq import CompletionQueue
from repro.ib.hca import HCA
from repro.ib.mr import Access
from repro.ib.verbs import IBContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.domain import Domain


class IBBackend:
    """dom0 half: executes privileged HCA operations for guests."""

    def __init__(self, hca: HCA, dom0: "Domain") -> None:
        if not dom0.is_privileged:
            raise HypervisorError("IB backend must run in dom0")
        self.hca = hca
        self.dom0 = dom0
        #: Registered frontends by domid (the backend tracks its guests).
        self.frontends = {}
        #: Count of control operations served (sanity statistic).
        self.ops_served = 0

    def _charge(self):
        """Backend CPU work for one control operation."""
        yield self.dom0.vcpu.compute(self.hca.params.backend_op_ns)
        self.ops_served += 1


class IBFrontend:
    """Guest half: forwards control ops to the backend."""

    def __init__(self, domain: "Domain", backend: IBBackend) -> None:
        if domain.is_privileged:
            raise HypervisorError(
                "the frontend runs in guest domains, not dom0"
            )
        self.domain = domain
        self.backend = backend
        backend.frontends[domain.domid] = self

    @property
    def params(self):
        return self.backend.hca.params

    def _roundtrip(self):
        """Guest->backend->guest control message."""
        yield self.domain.vcpu.compute(self.params.hypercall_ns)
        yield from self.backend._charge()

    # -- control-path verbs -------------------------------------------------
    def open_context(self):
        """Open the device: allocates the UAR doorbell page."""
        yield from self._roundtrip()
        uar = self.backend.hca.create_uar(self.domain)
        return IBContext(self.domain, self.backend.hca, uar)

    def reg_mr(self, ctx: IBContext, nbytes: int, access: Access, label: str = ""):
        """Allocate and register a buffer of ``nbytes``.

        Registration pins the pages and installs the TPT entry — the
        slow, backend-mediated step that real IB applications amortize
        by registering once and reusing buffers (BenchEx does the same).
        """
        yield from self._roundtrip()
        buffer = Buffer(self.domain.address_space, nbytes, label=label)
        mr = self.backend.hca.register_mr(buffer, access, self.domain.domid)
        ctx.mrs.append(mr)
        return mr

    def create_cq(self, ctx: IBContext, depth: int = 1024):
        yield from self._roundtrip()
        cq = self.backend.hca.create_cq(self.domain, depth)
        ctx.cqs.append(cq)
        return cq

    def create_qp(
        self,
        ctx: IBContext,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        max_send_wr: int = 128,
        max_recv_wr: int = 128,
        srq=None,
    ):
        yield from self._roundtrip()
        qp = self.backend.hca.create_qp(
            self.domain,
            send_cq,
            recv_cq if recv_cq is not None else send_cq,
            max_send_wr,
            max_recv_wr,
            srq=srq,
        )
        ctx.qps.append(qp)
        return qp

    def create_srq(self, ctx: IBContext, max_wr: int = 1024):
        """Create a shared receive queue for fan-in servers."""
        yield from self._roundtrip()
        srq = self.backend.hca.create_srq(self.domain, max_wr)
        ctx.srqs.append(srq)
        return srq
