"""Canonical testbed construction.

Builds the paper's experimental platform (§VII): two Dell PowerEdge
1950 servers — one 8-core 1.86 GHz, one 4-core 2.66 GHz — each with a
Mellanox HCA, connected through a Xsigo VP780 10 Gbps switch; Xen with
one VCPU per guest pinned to its own core; OFED-style para-virtual IB
drivers (backend in dom0, VMM-bypass fast path).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigError
from repro.hw.fabric import FluidFabric
from repro.hw.host import Host
from repro.ib.hca import HCA
from repro.ib.params import DEFAULT_FABRIC_PARAMS, FabricParams
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.xen.domain import Domain
from repro.xen.hypervisor import Hypervisor
from repro.xen.splitdriver import IBBackend, IBFrontend
from repro.xen.xenstat import XenStat


class Node:
    """One host with its hypervisor, HCA, backend driver and XenStat."""

    def __init__(
        self,
        env: Environment,
        fabric: FluidFabric,
        name: str,
        ncpus: int,
        cpu_freq_hz: float,
        params: FabricParams,
    ) -> None:
        self.host = Host(name, ncpus=ncpus, cpu_freq_hz=cpu_freq_hz)
        self.hypervisor = Hypervisor(env, self.host)
        self.hca = HCA(env, self.host, fabric, params)
        self.backend = IBBackend(self.hca, self.hypervisor.dom0)
        self.xenstat = XenStat(self.hypervisor)
        self._next_pcpu = 1  # pcpu 0 is dom0's

    def create_guest(
        self,
        name: str,
        pcpus: Optional[Sequence[int]] = None,
        weight: int = 256,
        cap_percent: int = 100,
    ) -> Domain:
        """Create a guest VM; defaults to pinning one VCPU on the next
        free core (the paper's one-core-per-VM policy).  When the host
        runs out of dedicated cores, guests wrap around and share them
        under the credit scheduler — how an oversubscribed client
        machine actually behaves."""
        if pcpus is None:
            ncpus = len(self.host.cpus)
            slot = self._next_pcpu
            if slot >= ncpus:
                # Wrap over the guest cores (never back onto dom0's core 0).
                slot = 1 + (slot - 1) % (ncpus - 1) if ncpus > 1 else 0
            pcpus = [slot]
            self._next_pcpu += 1
        return self.hypervisor.create_domain(
            name, pcpus=pcpus, weight=weight, cap_percent=cap_percent
        )

    def frontend(self, domain: Domain) -> IBFrontend:
        return IBFrontend(domain, self.backend)

    def __repr__(self) -> str:
        return f"<Node {self.host.name}>"


class Testbed:
    """The full two-(or more-)host platform."""

    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        seed: int = 0,
        params: FabricParams = DEFAULT_FABRIC_PARAMS,
    ) -> None:
        self.env = Environment()
        self.rng = RngRegistry(seed)
        self.params = params
        self.fabric = FluidFabric(self.env)
        self.nodes: Dict[str, Node] = {}

    def add_node(
        self, name: str, ncpus: int = 8, cpu_freq_hz: float = 1.86e9
    ) -> Node:
        if name in self.nodes:
            raise ConfigError(f"duplicate node name {name!r}")
        node = Node(
            self.env, self.fabric, name, ncpus, cpu_freq_hz, self.params
        )
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigError(f"no such node: {name!r}") from None

    @classmethod
    def paper_testbed(
        cls, seed: int = 0, params: FabricParams = DEFAULT_FABRIC_PARAMS
    ) -> "Testbed":
        """The CLUSTER'11 testbed: server node + client node.

        The paper's client machine has 4 cores (2x dual-core Xeon), but
        its stated methodology gives *every* VM its own core so that no
        result contains CPU-scheduling noise (§II).  With dom0 plus up
        to four client VMs that does not fit in 4 cores, so the client
        host is widened to 8 — preserving the methodology rather than
        the part number (see DESIGN.md).
        """
        bed = cls(seed=seed, params=params)
        bed.add_node("server-host", ncpus=8, cpu_freq_hz=1.86e9)
        bed.add_node("client-host", ncpus=8, cpu_freq_hz=2.66e9)
        return bed
