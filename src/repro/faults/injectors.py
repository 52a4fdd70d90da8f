"""Per-layer fault injectors.

Each injector owns one failure mode of one component and translates a
:class:`~repro.faults.campaign.Fault` into that component's explicit
fault hook.  The hooks are deliberately tiny — a degradation factor, a
stall field, a staleness flag, a pause bit — so the injected behaviour
is implemented (and testable) inside the layer it breaks, and this
module stays a thin adapter.

Fault kinds and their targets:

=====================  ============================================
kind                   target
=====================  ============================================
``link-degrade``       fabric link name (e.g. ``server-host.tx``);
                       severity = lost capacity fraction, 1.0 = down
``hca-doorbell-stall`` informational (one HCA per injector);
                       severity scales ``max_stall_ns``
``hca-cqe-delay``      informational; severity scales ``max_delay_ns``
``ibmon-dropout``      informational (sampler skips passes)
``ibmon-stale``        informational (drains return stale estimates)
``controller-outage``  informational (management loop paused)
``vcpu-freeze``        domain *name* on the injector's hypervisor
``federation-outage``  informational (price casts lost)
=====================  ============================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.campaign import Fault, Injector
from repro.units import US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.fabric import FluidFabric
    from repro.ib.hca import HCA
    from repro.ibmon import IBMon
    from repro.resex.controller import ResExController
    from repro.resex.federation import PriceCoordinator
    from repro.xen.hypervisor import Hypervisor


class LinkDegradation(Injector):
    """Scale a fabric link to a fraction of nominal capacity.

    ``severity`` is the *lost* fraction: 0.5 degrades the link to half
    capacity, 1.0 flaps it to zero (in-flight transfers stall in place
    and resume on clear).
    """

    kind = "link-degrade"

    def __init__(self, fabric: "FluidFabric") -> None:
        self.fabric = fabric

    def inject(self, fault: Fault) -> None:
        self.fabric.set_link_degradation(fault.target, 1.0 - fault.severity)

    def clear(self, fault: Fault) -> None:
        self.fabric.set_link_degradation(fault.target, 1.0)


class DoorbellStall(Injector):
    """Add latency to every doorbell-to-WR-fetch step of one HCA."""

    kind = "hca-doorbell-stall"

    def __init__(self, hca: "HCA", max_stall_ns: int = 100 * US) -> None:
        self.hca = hca
        self.max_stall_ns = max_stall_ns

    def inject(self, fault: Fault) -> None:
        self.hca.fault_doorbell_stall_ns = int(fault.severity * self.max_stall_ns)

    def clear(self, fault: Fault) -> None:
        self.hca.fault_doorbell_stall_ns = 0


class CompletionDelay(Injector):
    """Delay send-side completion delivery on one HCA."""

    kind = "hca-cqe-delay"

    def __init__(self, hca: "HCA", max_delay_ns: int = 100 * US) -> None:
        self.hca = hca
        self.max_delay_ns = max_delay_ns

    def inject(self, fault: Fault) -> None:
        self.hca.fault_cqe_delay_ns = int(fault.severity * self.max_delay_ns)

    def clear(self, fault: Fault) -> None:
        self.hca.fault_cqe_delay_ns = 0


class MonitorDropout(Injector):
    """IBMon stops taking samples; CQ counts recover after the window."""

    kind = "ibmon-dropout"

    def __init__(self, ibmon: "IBMon") -> None:
        self.ibmon = ibmon

    def inject(self, fault: Fault) -> None:
        self.ibmon.fault_drop_samples = True

    def clear(self, fault: Fault) -> None:
        self.ibmon.fault_drop_samples = False


class MonitorStale(Injector):
    """IBMon drains silently return the previous estimate."""

    kind = "ibmon-stale"

    def __init__(self, ibmon: "IBMon") -> None:
        self.ibmon = ibmon

    def inject(self, fault: Fault) -> None:
        self.ibmon.fault_stale_reads = True

    def clear(self, fault: Fault) -> None:
        self.ibmon.fault_stale_reads = False


class ControllerOutage(Injector):
    """Pause/resume the ResEx management loop (controller crash+restart)."""

    kind = "controller-outage"

    def __init__(self, controller: "ResExController") -> None:
        self.controller = controller

    def inject(self, fault: Fault) -> None:
        self.controller.pause()

    def clear(self, fault: Fault) -> None:
        self.controller.resume()


class VCPUFreeze(Injector):
    """Freeze a guest's VCPUs for the fault window (``xl pause``)."""

    kind = "vcpu-freeze"

    def __init__(self, hypervisor: "Hypervisor") -> None:
        self.hypervisor = hypervisor

    def inject(self, fault: Fault) -> None:
        domid = self.hypervisor.domain_by_name(fault.target).domid
        self.hypervisor.pause_domain(domid)

    def clear(self, fault: Fault) -> None:
        domid = self.hypervisor.domain_by_name(fault.target).domid
        self.hypervisor.unpause_domain(domid)


class FederationOutage(Injector):
    """Pause a price federation's coordinator: its rounds are lost."""

    kind = "federation-outage"

    def __init__(self, federation: "PriceCoordinator") -> None:
        self.federation = federation

    def inject(self, fault: Fault) -> None:
        self.federation.paused = True

    def clear(self, fault: Fault) -> None:
        self.federation.paused = False
