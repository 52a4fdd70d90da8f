"""The hypervisor: domain lifecycle, scheduling, introspection privilege.

One :class:`Hypervisor` instance manages one :class:`~repro.hw.host.Host`.
It creates domains, pins their VCPUs to physical CPUs (the paper assigns
a whole core per VM to isolate CPU effects), exposes the XenStat-like
accounting interface, and implements ``xc_map_foreign_range`` semantics
for dom0 introspection (the channel IBMon uses).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import HypervisorError, IntrospectionError
from repro.hw.host import Host
from repro.hw.memory import AddressSpace, PageFrame, ReadOnlyView
from repro.sim.core import Environment
from repro.units import MS
from repro.xen.credit import DEFAULT_PERIOD_NS, PCPUScheduler
from repro.xen.domain import DOM0_ID, Domain
from repro.xen.vcpu import VCPU


class Hypervisor:
    """Xen-like VMM for a single host."""

    def __init__(
        self,
        env: Environment,
        host: Host,
        period_ns: int = DEFAULT_PERIOD_NS,
        quantum_ns: int = 1 * MS,
    ) -> None:
        self.env = env
        self.host = host
        self.schedulers: List[PCPUScheduler] = [
            PCPUScheduler(env, cpu.cpu_id, period_ns, quantum_ns)
            for cpu in host.cpus
        ]
        self.domains: Dict[int, Domain] = {}
        self._next_domid = DOM0_ID
        # dom0 always exists: the control domain running on pcpu 0.
        self.dom0 = self.create_domain("dom0", pcpus=[0])

    # -- domain lifecycle -----------------------------------------------------
    def create_domain(
        self,
        name: str,
        pcpus: Sequence[int],
        weight: int = 256,
        cap_percent: int = 100,
    ) -> Domain:
        """Create a domain with one VCPU pinned to each listed PCPU."""
        if not pcpus:
            raise HypervisorError("a domain needs at least one pinned PCPU")
        for pcpu in pcpus:
            if not 0 <= pcpu < len(self.schedulers):
                raise HypervisorError(f"no such PCPU: {pcpu}")
        domid = self._next_domid
        self._next_domid += 1
        aspace = AddressSpace(domid, self.host.memory)
        vcpus = []
        for idx, pcpu in enumerate(pcpus):
            vcpu = VCPU(self.env, idx, weight=weight, cap_percent=cap_percent)
            self.schedulers[pcpu].attach(vcpu)
            vcpus.append(vcpu)
        domain = Domain(self, domid, name, aspace, vcpus)
        self.domains[domid] = domain
        return domain

    def domain(self, domid: int) -> Domain:
        try:
            return self.domains[domid]
        except KeyError:
            raise HypervisorError(f"no such domain: {domid}") from None

    def domain_by_name(self, name: str) -> Domain:
        for dom in self.domains.values():
            if dom.name == name:
                return dom
        raise HypervisorError(f"no domain named {name!r}")

    def guest_domains(self) -> List[Domain]:
        """All domains except dom0, in domid order."""
        return [d for i, d in sorted(self.domains.items()) if i != DOM0_ID]

    # -- scheduling controls -------------------------------------------------
    def pause_domain(self, domid: int) -> None:
        """Freeze every VCPU of a domain (the ``xl pause`` analog).

        A frozen VCPU is never scheduled; queued and newly-submitted
        work waits.  I/O already pushed to the HCA still completes —
        the guest just cannot observe the completions — exactly the
        VMM-bypass property ResEx's CPU-cap actuator relies on.
        """
        domain = self.domain(domid)
        if domain.is_privileged:
            raise HypervisorError("cannot pause dom0")
        for vcpu in domain.vcpus:
            vcpu.frozen = True
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                "credit", "domain_paused", self.env.now,
                lane=f"dom{domid}", domid=domid,
            )

    def unpause_domain(self, domid: int) -> None:
        """Thaw a paused domain and reschedule its pending work."""
        domain = self.domain(domid)
        for vcpu in domain.vcpus:
            vcpu.frozen = False
            if vcpu.scheduler is not None and vcpu.has_work():
                vcpu._needs_vtime_clamp = True
                vcpu.scheduler.notify_work()
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                "credit", "domain_unpaused", self.env.now,
                lane=f"dom{domid}", domid=domid,
            )

    def set_cap(self, domid: int, cap_percent: int) -> None:
        """Set the CPU cap for every VCPU of a domain (ResEx's actuator)."""
        domain = self.domain(domid)
        old_cap = domain.vcpu.cap_percent
        for vcpu in domain.vcpus:
            vcpu.cap_percent = cap_percent
        tel = self.env.telemetry
        if tel.enabled and cap_percent != old_cap:
            tel.event(
                "credit",
                "cap_change",
                self.env.now,
                lane=f"dom{domid}",
                domid=domid,
                old_pct=old_cap,
                new_pct=int(cap_percent),
            )

    def get_cap(self, domid: int) -> int:
        return self.domain(domid).vcpu.cap_percent

    # -- introspection (xc_map_foreign_range) -----------------------------------
    def map_foreign_pages(
        self, requester: Domain, target_domid: int, gpfns: Sequence[int]
    ) -> List[ReadOnlyView]:
        """Map another domain's pages read-only into ``requester``.

        Only the privileged domain may do this — the mechanism IBMon
        uses to observe guest CQ rings without guest cooperation.
        """
        if not requester.is_privileged:
            raise IntrospectionError(
                f"{requester.name!r} is not privileged to map foreign pages"
            )
        target = self.domain(target_domid)
        views = []
        for gpfn in gpfns:
            try:
                frame: PageFrame = target.address_space.translate(gpfn)
            except HypervisorError as exc:
                raise IntrospectionError(str(exc)) from None
            views.append(ReadOnlyView(frame))
        return views

    def __repr__(self) -> str:
        return f"<Hypervisor host={self.host.name} domains={len(self.domains)}>"
