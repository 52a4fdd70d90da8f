"""IBMon: asynchronous monitoring of VMM-bypass InfiniBand usage.

Because guests talk to the HCA directly, dom0 never sees their I/O.
IBMon (paper [19], §III) recovers an *estimate* by mapping each guest's
completion-queue rings read-only (``xc_map_foreign_range``, with the
backend driver's help in locating them) and sampling periodically:

* the producer index delta gives an exact count of completions between
  samples (it is monotonic, so nothing is ever missed);
* ring entries that have not yet been consumed by the guest reveal the
  operation type and byte length, from which IBMon classifies each CQ
  (send vs receive side) and infers the application's buffer size;
* MTUsSent is then completions x ceil(buffer/MTU) over send-side CQs.

The estimates inherit real IBMon's raciness: an entry consumed before
the next sample hides its contents (though never its count), so buffer
size inference needs the sampler to win the race at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import IntrospectionError
from repro.ib.cq import WCOpcode
from repro.units import US
from repro.xen.introspect import xc_map_foreign_range

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.platform import Node


@dataclass
class IBMonStats:
    """What IBMon can tell ResEx about one VM."""

    domid: int
    completions: int
    estimated_bytes: int
    estimated_mtus: int
    buffer_size_estimate: Optional[int]
    qp_nums: Set[int]


class _MonitoredCQ:
    """Sampling state for one mapped completion queue."""

    __slots__ = (
        "cqn",
        "content",
        "last_producer",
        "classification",
        "inferred_bytes",
        "qp_nums",
        "completions_accum",
        "unattributed",
    )

    def __init__(self, cqn: int, content) -> None:
        self.cqn = cqn
        #: Read-only view of the ring (via the foreign-mapped frame).
        self.content = content
        #: Producer indices start at 0 when the ring is created, so a
        #: freshly-discovered CQ can be counted from the beginning.
        self.last_producer = 0
        #: None until an entry has been observed; then 'send' or 'recv'.
        self.classification: Optional[str] = None
        #: Most recently observed completion byte length.
        self.inferred_bytes: Optional[int] = None
        self.qp_nums: Set[int] = set()
        #: Completions attributed to this CQ since the last drain.
        self.completions_accum = 0
        #: Completions counted before the CQ could be classified.
        self.unattributed = 0


class _MonitoredVM:
    __slots__ = ("domid", "cqs", "known_cqns", "scanned")

    def __init__(self, domid: int) -> None:
        self.domid = domid
        self.cqs: List[_MonitoredCQ] = []
        self.known_cqns: Set[int] = set()
        #: Size of the HCA's CQ table at this VM's last discovery scan.
        self.scanned = 0


class IBMon:
    """The dom0 monitoring daemon for one host."""

    def __init__(
        self,
        node: "Node",
        sample_interval_ns: int = 250_000,
        sample_cpu_ns: int = 2 * US,
    ) -> None:
        if sample_interval_ns <= 0:
            raise IntrospectionError("sample interval must be positive")
        self.node = node
        self.env = node.hypervisor.env
        self.sample_interval_ns = sample_interval_ns
        self.sample_cpu_ns = sample_cpu_ns
        self._vms: Dict[int, _MonitoredVM] = {}
        #: Rings mapped so far, across every watched VM.
        self._ncqs = 0
        self.samples_taken = 0
        self.samples_dropped = 0
        self._proc = None
        #: Fault-injection hooks (:mod:`repro.faults`).  While
        #: ``fault_drop_samples`` is set the periodic sampler skips its
        #: pass entirely (CQ rings keep filling; counts are recovered
        #: from the producer index after the outage).  While
        #: ``fault_stale_reads`` is set :meth:`drain` silently returns
        #: the previous estimate without touching the accumulators —
        #: the consumer cannot tell the data is stale.
        self.fault_drop_samples = False
        self.fault_stale_reads = False
        self._last_stats: Dict[int, IBMonStats] = {}

    # -- registration ----------------------------------------------------------
    def watch_domain(self, domid: int) -> None:
        """Begin monitoring a guest; its CQs are discovered lazily (new
        queues created later are picked up on subsequent samples)."""
        self.node.hypervisor.domain(domid)  # validates existence
        if domid not in self._vms:
            self._vms[domid] = _MonitoredVM(domid)

    def _discover(self, vm: _MonitoredVM) -> None:
        """Find this domain's CQ rings with the backend driver's help,
        then map their pages read-only.

        Called only when the HCA's CQ table has grown since this VM's
        last scan (see :meth:`sample_now`).
        """
        cqs = self.node.hca.cqs
        for cqn, cq in cqs.items():
            if cqn in vm.known_cqns:
                continue
            if cq.page.address_space.domid != vm.domid:
                continue
            views = xc_map_foreign_range(
                self.node.hypervisor,
                self.node.hypervisor.dom0,
                vm.domid,
                cq.page.gpfn_start,
                1,
            )
            vm.known_cqns.add(cqn)
            vm.cqs.append(_MonitoredCQ(cqn, views[0].content))
            self._ncqs += 1
        vm.scanned = len(cqs)

    # -- the sampling daemon -------------------------------------------------------
    def start(self) -> None:
        """Launch the periodic sampling loop as a dom0 process."""
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="ibmon")

    def _run(self):
        dom0 = self.node.hypervisor.dom0
        while True:
            yield self.env.timeout(self.sample_interval_ns)
            if self.fault_drop_samples:
                self.samples_dropped += 1
                continue
            sample_start = self.env.now
            ncqs = self._ncqs
            # Introspection costs dom0 CPU per mapped ring.
            yield dom0.vcpu.compute(self.sample_cpu_ns * max(ncqs, 1))
            self.sample_now()
            tel = self.env.telemetry
            if tel.enabled:
                tel.span(
                    "ibmon",
                    "sample",
                    sample_start,
                    self.env.now,
                    lane=f"ibmon-{self.node.host.name}",
                    sample=self.samples_taken,
                    cqs_mapped=ncqs,
                    vms=len(self._vms),
                )

    def sample_now(self) -> None:
        """One sampling pass over every watched VM (also callable
        synchronously from tests)."""
        self.samples_taken += 1
        # The HCA only ever adds CQs (there is no CQ destroy verb), so a
        # table no larger than at a VM's last scan holds nothing new.
        ncqs = len(self.node.hca.cqs)
        for vm in self._vms.values():
            if vm.scanned != ncqs:
                self._discover(vm)
            for mcq in vm.cqs:
                self._sample_cq(mcq)

    def _sample_cq(self, mcq: _MonitoredCQ) -> None:
        content = mcq.content
        producer = content.producer_index
        delta = producer - mcq.last_producer
        if delta <= 0:
            return
        # Entries stay readable until the ring wraps and overwrites
        # them; only a sampler slower than one full ring turn loses
        # entry contents (never counts — those come from the index).
        depth = content.depth
        ring = content._ring
        first_visible = max(mcq.last_producer, producer - depth)
        for index in range(first_visible, producer):
            entry = ring[index % depth]
            if entry is None:
                continue
            mcq.qp_nums.add(entry.qp_num)
            if entry.opcode in (WCOpcode.RECV, WCOpcode.RECV_RDMA_WITH_IMM):
                mcq.classification = "recv"
            else:
                mcq.classification = "send"
                mcq.inferred_bytes = entry.byte_len
        mcq.last_producer = producer
        if mcq.classification is None:
            mcq.unattributed += delta
        else:
            mcq.completions_accum += delta + mcq.unattributed
            mcq.unattributed = 0

    # -- the ResEx-facing interface ---------------------------------------------
    def get_mtus(self, domid: int) -> int:
        """MTUsSent estimate since the previous call (Algorithm 1/2,
        the GetMTUs step).  Resets the accumulator."""
        stats = self.drain(domid)
        return stats.estimated_mtus

    def drain(self, domid: int) -> IBMonStats:
        """Full estimate since the previous drain; resets accumulators.

        Under an injected stale-read fault the previous drain's result
        is returned unchanged and nothing is reset, so the backlog
        surfaces in one large estimate once the fault clears.
        """
        vm = self._vms.get(domid)
        if vm is None:
            raise IntrospectionError(f"domain {domid} is not being monitored")
        if self.fault_stale_reads:
            prev = self._last_stats.get(domid)
            if prev is not None:
                return prev
            return IBMonStats(
                domid=domid,
                completions=0,
                estimated_bytes=0,
                estimated_mtus=0,
                buffer_size_estimate=None,
                qp_nums=set(),
            )
        completions = 0
        est_bytes = 0
        buffer_est: Optional[int] = None
        qp_nums: Set[int] = set()
        for mcq in vm.cqs:
            qp_nums |= mcq.qp_nums
            if mcq.classification == "send":
                count = mcq.completions_accum
                completions += count
                size = mcq.inferred_bytes or 0
                est_bytes += count * size
                if size and (buffer_est is None or size > buffer_est):
                    buffer_est = size
            mcq.completions_accum = 0
        mtus = 0
        if est_bytes:
            mtus = -(-est_bytes // self.node.hca.params.mtu_bytes)
        stats = IBMonStats(
            domid, completions, est_bytes, mtus, buffer_est, qp_nums
        )
        self._last_stats[domid] = stats
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                "ibmon",
                "observation",
                self.env.now,
                lane=f"dom{domid}",
                domid=domid,
                completions=stats.completions,
                est_bytes=stats.estimated_bytes,
                est_mtus=stats.estimated_mtus,
                buffer_est=stats.buffer_size_estimate,
            )
        return stats

    def __repr__(self) -> str:
        return f"<IBMon {self.node.host.name} vms={len(self._vms)}>"
