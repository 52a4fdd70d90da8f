"""Domains (VMs) hosted by the hypervisor."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import HypervisorError
from repro.hw.memory import AddressSpace
from repro.xen.vcpu import VCPU

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.hypervisor import Hypervisor

DOM0_ID = 0


class Domain:
    """One VM: identity, memory, and its VCPUs.

    dom0 (domid 0) is the privileged control domain; it hosts the IB
    backend driver, IBMon, and the ResEx controller.
    """

    def __init__(
        self,
        hypervisor: "Hypervisor",
        domid: int,
        name: str,
        address_space: AddressSpace,
        vcpus: List[VCPU],
    ) -> None:
        if not vcpus:
            raise HypervisorError(f"domain {name!r} needs at least one VCPU")
        self.hypervisor = hypervisor
        self.env = hypervisor.env
        self.domid = domid
        self.name = name
        self.address_space = address_space
        self.vcpus = vcpus

    @property
    def is_privileged(self) -> bool:
        return self.domid == DOM0_ID

    @property
    def vcpu(self) -> VCPU:
        """The first (often only) VCPU — the paper pins one per domain."""
        return self.vcpus[0]

    @property
    def cpu_time_ns(self) -> int:
        """Total CPU consumed by all VCPUs (the XenStat counter)."""
        total = 0
        for vcpu in self.vcpus:
            total += vcpu.cumulative_ns
        return total

    def __repr__(self) -> str:
        return f"<Domain {self.domid} {self.name!r} vcpus={len(self.vcpus)}>"
