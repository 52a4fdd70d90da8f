"""XenStat-like accounting interface.

ResEx uses the XenStat library to (a) read the CPU time consumed by a
VM and (b) set its CPU cap (paper §III).  This module exposes exactly
that contract: cumulative counters that the caller differences per
interval, plus the cap setter, so the ResEx controller code reads like
the original.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.xen.hypervisor import Hypervisor


class XenStat:
    """Per-hypervisor accounting facade."""

    def __init__(self, hypervisor: Hypervisor) -> None:
        self.hypervisor = hypervisor
        #: domid -> (cumulative CPU ns, sim time) at the last read.
        self._last_read: Dict[int, Tuple[int, int]] = {}

    # -- reading ---------------------------------------------------------------
    def cpu_time_ns(self, domid: int) -> int:
        """Cumulative CPU time consumed by the domain (all VCPUs)."""
        return self.hypervisor.domain(domid).cpu_time_ns

    def cpu_percent_since_last(self, domid: int) -> float:
        """CPU utilization (0-100, per VCPU-equivalent) since the last call.

        First call for a domain establishes the baseline and returns 0.
        This is how the ResEx interval loop samples "CPU percent in the
        interval" (Algorithm 1, line 5).
        """
        now = self.hypervisor.env.now
        domain = self.hypervisor.domain(domid)
        current = domain.cpu_time_ns
        last = self._last_read.get(domid)
        self._last_read[domid] = (current, now)
        if last is None or now <= last[1]:
            return 0.0
        last_cpu_ns, last_at = last
        return 100.0 * (current - last_cpu_ns) / ((now - last_at) * len(domain.vcpus))

    # -- control ------------------------------------------------------------------
    def set_cap(self, domid: int, cap_percent: int) -> None:
        """Set the domain's scheduler cap (the 'CPU cap' of the paper)."""
        self.hypervisor.set_cap(domid, cap_percent)

    def get_cap(self, domid: int) -> int:
        return self.hypervisor.get_cap(domid)

    def __repr__(self) -> str:
        return f"<XenStat over {self.hypervisor!r}>"
