"""Hardware substrate: CPUs, memory, hosts, and the network fabric."""

from repro.hw.cpu import PCPU
from repro.hw.fabric import (
    FluidFabric,
    NetLink,
    PacketLink,
    Transfer,
    maxmin_rates,
)
from repro.hw.host import Host, path_between
from repro.hw.memory import (
    PAGE_SIZE,
    AddressSpace,
    Buffer,
    MachineMemory,
    PageFrame,
    ReadOnlyView,
)

__all__ = [
    "PAGE_SIZE",
    "AddressSpace",
    "Buffer",
    "FluidFabric",
    "Host",
    "MachineMemory",
    "NetLink",
    "PCPU",
    "PacketLink",
    "PageFrame",
    "ReadOnlyView",
    "Transfer",
    "maxmin_rates",
    "path_between",
]
