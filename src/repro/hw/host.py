"""Host machine model: cores, memory, and fabric ports."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigError
from repro.hw.cpu import PCPU
from repro.hw.fabric import FluidFabric, NetLink
from repro.hw.memory import MachineMemory
from repro.units import GiB


class Host:
    """One physical server attached to the fabric.

    The testbed (paper §VII) is two Dell PowerEdge 1950s: one with
    8 x 1.86 GHz cores, one with 4 x 2.66 GHz cores, 4 GB RAM each,
    connected through a Xsigo VP780 10 Gbps switch.
    """

    def __init__(
        self,
        name: str,
        ncpus: int = 8,
        cpu_freq_hz: float = 1.86e9,
        memory_bytes: int = 4 * GiB,
    ) -> None:
        if ncpus < 1:
            raise ConfigError(f"host needs at least 1 CPU, got {ncpus}")
        self.name = name
        self.cpus: List[PCPU] = [PCPU(i, cpu_freq_hz) for i in range(ncpus)]
        self.memory = MachineMemory(memory_bytes)
        #: Egress / ingress fabric port directions; set by attach_fabric.
        self.tx_link: Optional[NetLink] = None
        self.rx_link: Optional[NetLink] = None
        #: The HCA attached to this host (set by repro.ib.hca.HCA).
        self.hca = None

    def attach_fabric(
        self, fabric: FluidFabric, link_bytes_per_sec: float
    ) -> None:
        """Create this host's port links inside ``fabric``.

        A port is full duplex: separate tx and rx capacity, as on real
        IB links.  Contention is per direction.
        """
        if self.tx_link is not None or self.rx_link is not None:
            raise ConfigError(
                f"host {self.name!r} is already attached to a fabric "
                "(double attachment would create duplicate port links)"
            )
        self.tx_link = fabric.add_link(f"{self.name}.tx", link_bytes_per_sec)
        self.rx_link = fabric.add_link(f"{self.name}.rx", link_bytes_per_sec)

    @property
    def is_attached(self) -> bool:
        return self.tx_link is not None and self.rx_link is not None

    def __repr__(self) -> str:
        return f"<Host {self.name} cpus={len(self.cpus)}>"


def path_between(src: Host, dst: Host) -> List[NetLink]:
    """Fabric path for a transfer from ``src`` to ``dst``.

    Directly-attached hosts share a non-blocking backplane (the paper's
    crossbar switch) whose only contention points are the source's
    egress and the destination's ingress port.  Loopback (same host)
    still crosses the HCA, consuming both directions of the port.
    Cluster fabrics add their switch hops from a
    :class:`~repro.hw.topology.DomainPlan` instead.
    """
    if not src.is_attached or not dst.is_attached:
        raise ConfigError("both hosts must be attached to the fabric")
    return [src.tx_link, dst.rx_link]
