"""The ResEx controller: the dom0 management loop (paper §VI).

Every interval (1 ms) the controller lets the active pricing policy
observe each monitored VM — MTUsSent via IBMon, CPU percent via
XenStat, latency reports via the in-VM agent — charge Resos, and set
CPU caps.  Every epoch (1 s) accounts replenish.

Everything the figures need is recorded into probe time series:
per-VM cap, Reso balance, charge rate and interference percentage.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.benchex.reporting import LatencyAgent
from repro.errors import PricingError
from repro.ibmon import IBMon
from repro.resex.interference import InterferenceDetector, LatencySLA
from repro.resex.policy import PricingPolicy
from repro.resex.resos import ResoAccount, ResoParams, provision_accounts
from repro.sim.monitor import ProbeSet, TimeSeries
from repro.units import US
from repro.xen.domain import Domain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.platform import Node


class MonitoredVM:
    """Controller-side state for one managed VM.

    Everything the per-interval loop touches is resolved once, when the
    VM comes under management: its domid, its VCPU and its probe series.
    A domain's VCPUs always share one cap (only
    :meth:`~repro.xen.hypervisor.Hypervisor.set_cap` writes it), so
    VCPU 0's cap is the domain's.
    """

    def __init__(
        self,
        domain: Domain,
        agent: Optional[LatencyAgent],
        detector: Optional[InterferenceDetector],
        mtu_window: int,
        probes: ProbeSet,
    ) -> None:
        self.domain = domain
        self.domid = domain.domid
        self.vcpu = domain.vcpu
        self.agent = agent
        self.detector = detector
        self.account: Optional[ResoAccount] = None
        #: Per-VM charge rate (Resos per unit); IOShares raises it for
        #: congestion-causing VMs.  1.0 is the uniform FreeMarket rate.
        self.charge_rate = 1.0
        #: Recent per-interval MTU counts (completions are bursty for
        #: large buffers, so interferer attribution uses a window).
        self.mtus_window: Deque[int] = deque(maxlen=mtu_window)
        #: Most recent interval's readings (for policies and probes).
        self.last_mtus = 0
        self.last_cpu_pct = 0.0
        #: Probe series sampled every interval, in recording order.
        tag = f"dom{self.domid}"
        self.cap_series = probes.ts(f"{tag}.cap")
        self.resos_series = probes.ts(f"{tag}.resos")
        self.rate_series = probes.ts(f"{tag}.rate")
        self.intf_series: Optional[TimeSeries] = (
            probes.ts(f"{tag}.intf_pct") if detector is not None else None
        )

    def windowed_mtus(self) -> int:
        return sum(self.mtus_window)

    def __repr__(self) -> str:
        return f"<MonitoredVM dom{self.domid} rate={self.charge_rate:.2f}>"


class ResExController:
    """One ResEx instance, managing the guests of one host."""

    #: dom0 CPU cost of one management interval, per monitored VM.
    INTERVAL_CPU_NS = 3 * US

    def __init__(
        self,
        node: "Node",
        policy: PricingPolicy,
        reso_params: ResoParams = ResoParams(),
        ibmon: Optional[IBMon] = None,
        mtu_window: int = 20,
        weights: Optional[Dict[int, float]] = None,
    ) -> None:
        self.node = node
        self.env = node.hypervisor.env
        self.policy = policy
        self.reso_params = reso_params
        self.ibmon = ibmon if ibmon is not None else IBMon(node)
        self.mtu_window = mtu_window
        self.weights = weights
        self.vms: List[MonitoredVM] = []
        #: Cluster-wide congestion price (1.0 = calm), set when this
        #: host's :class:`~repro.resex.federation.PriceCoordinator`
        #: casts a round (to its own :meth:`local_price`) or its
        #: :class:`~repro.resex.federation.PriceAgent` applies a cast.
        #: The rack-follower policy reads it every interval; purely
        #: local deployments never touch it.
        self.cluster_price = 1.0
        self.probes = ProbeSet(self.env, prefix="resex")
        self.intervals_run = 0
        self.epochs_run = 0
        self.intervals_skipped = 0
        #: Fault-injection hook (:mod:`repro.faults`): while paused the
        #: management loop keeps its phase lock but does no work — no
        #: sensor reads, no pricing, no cap changes, no replenishment.
        #: Prices and caps stay frozen at their pre-outage values.
        self.paused = False
        self._proc = None

    # -- registration -------------------------------------------------------
    def monitor(
        self,
        domain: Domain,
        agent: Optional[LatencyAgent] = None,
        sla: Optional[LatencySLA] = None,
        detector_window: int = 50,
    ) -> MonitoredVM:
        """Bring a VM under management.

        ``agent`` is the in-VM latency reporting channel; ``sla`` the
        latency target used to judge interference.  Both are optional —
        a VM without them is charged but never treated as a victim.
        """
        if self._proc is not None:
            raise PricingError("cannot add VMs after the controller started")
        if any(vm.domid == domain.domid for vm in self.vms):
            raise PricingError(f"domain {domain.domid} is already monitored")
        detector = None
        if sla is not None:
            detector = InterferenceDetector(sla, window=detector_window)
        elif agent is not None:
            raise PricingError("an agent without an SLA cannot be evaluated")
        vm = MonitoredVM(
            domain, agent, detector, self.mtu_window, self.probes
        )
        self.vms.append(vm)
        self.ibmon.watch_domain(domain.domid)
        self.policy.on_attach(self, vm)
        return vm

    def vm_by_domid(self, domid: int) -> MonitoredVM:
        for vm in self.vms:
            if vm.domid == domid:
                return vm
        raise PricingError(f"domain {domid} is not monitored")

    def local_price(self) -> float:
        """The highest charge rate currently imposed on any managed VM
        — what a price coordinator samples and casts each sync tick."""
        price = 1.0
        for vm in self.vms:
            if vm.charge_rate > price:
                price = vm.charge_rate
        return price

    # -- start ------------------------------------------------------------------
    def start(self) -> None:
        """Provision accounts and launch the management loop."""
        if not self.vms:
            raise PricingError("no VMs to manage")
        if self._proc is not None:
            raise PricingError("controller already started")
        accounts = provision_accounts(
            [vm.domid for vm in self.vms],
            self.reso_params,
            self.node.hca.params,
            weights=self.weights,
        )
        for vm in self.vms:
            vm.account = accounts[vm.domid]
        self.ibmon.start()
        self._proc = self.env.process(self._run(), name="resex-controller")

    def pause(self) -> None:
        """Simulate a controller outage: freeze all management state.

        Caps and charge rates stay at their last-actuated values and
        Reso accounts are not replenished until :meth:`resume`.
        """
        self.paused = True
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                "resex", "outage", self.env.now, lane="controller",
                policy=self.policy.name,
            )

    def resume(self) -> None:
        """Restart after an outage.

        The sensor backlog accumulated during the outage (IBMon
        completions, agent latency reports, XenStat CPU time) drains on
        the first interval back, so interference is re-detected within
        one detector window of recovery.
        """
        self.paused = False
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                "resex", "restart", self.env.now, lane="controller",
                intervals_missed=self.intervals_skipped,
            )

    def _run(self):
        dom0 = self.node.hypervisor.dom0
        p = self.reso_params
        interval_index = 0
        start = self.env.now
        while True:
            # Phase-locked: the k-th interval fires at start + k*interval
            # regardless of how long the management work itself takes.
            next_tick = start + (interval_index + 1) * p.interval_ns
            yield self.env.timeout(max(next_tick - self.env.now, 0))
            if self.paused:
                # Controller outage: the interval (and any epoch
                # boundary inside it) passes without management work.
                interval_index += 1
                self.intervals_skipped += 1
                continue
            tick_start = self.env.now
            yield dom0.vcpu.compute(self.INTERVAL_CPU_NS * len(self.vms))
            interval_index += 1
            self._read_sensors()
            self.policy.on_interval(self)
            self._record_probes()
            self.intervals_run += 1
            tel = self.env.telemetry
            if tel.enabled:
                tel.span(
                    "resex",
                    "interval",
                    tick_start,
                    self.env.now,
                    lane="controller",
                    interval=interval_index,
                    policy=self.policy.name,
                )
            if interval_index % p.intervals_per_epoch == 0:
                for vm in self.vms:
                    assert vm.account is not None
                    balance_before = vm.account.balance
                    vm.account.replenish()
                    if tel.enabled:
                        tel.event(
                            "resex",
                            "replenish",
                            self.env.now,
                            lane=f"dom{vm.domid}",
                            domid=vm.domid,
                            balance_before=balance_before,
                            balance_after=vm.account.balance,
                        )
                self.policy.on_epoch(self)
                self.epochs_run += 1

    def _read_sensors(self) -> None:
        get_mtus = self.ibmon.get_mtus
        cpu_percent_since_last = self.node.xenstat.cpu_percent_since_last
        for vm in self.vms:
            vm.last_mtus = get_mtus(vm.domid)
            vm.mtus_window.append(vm.last_mtus)
            vm.last_cpu_pct = cpu_percent_since_last(vm.domid)
            if vm.agent is not None and vm.detector is not None:
                vm.detector.add_samples(vm.agent.drain())

    def _record_probes(self) -> None:
        samples = []
        for vm in self.vms:
            assert vm.account is not None
            samples.append((vm.cap_series, vm.vcpu.cap_percent))
            samples.append((vm.resos_series, vm.account.balance))
            samples.append((vm.rate_series, vm.charge_rate))
            if vm.intf_series is not None:
                assert vm.detector is not None
                samples.append((vm.intf_series, vm.detector.last_pct))
        self.probes.record_all(samples)

    # -- policy-facing helpers ----------------------------------------------------
    def get_mtus(self, vm: MonitoredVM) -> int:
        """MTUsSent in the last interval (Algorithm 1/2: GetMTUs)."""
        return vm.last_mtus

    def get_cpu_percent(self, vm: MonitoredVM) -> float:
        """CPU percent in the last interval (GetCPUPercent)."""
        return vm.last_cpu_pct

    def get_io_intf(self, vm: MonitoredVM) -> float:
        """Interference percentage for this VM (GetIOIntf)."""
        if vm.detector is None:
            return 0.0
        return vm.detector.interference_pct()

    #: A VM only qualifies as "the interferer" if it sent at least this
    #: multiple of the victim's own MTUs over the window.  This encodes
    #: the paper's Fig. 8 property — VMs doing the same amount of I/O
    #: are not penalized — and prevents two victims from blaming (and
    #: throttling) each other in a death spiral.
    INTERFERER_MARGIN = 1.25

    def get_io_intf_vm(self, victim: MonitoredVM) -> Optional[MonitoredVM]:
        """Identify the interfering VM (GetIOIntfVMId): the other
        managed VM with the most MTUs sent over the recent window,
        provided it is a meaningfully heavier sender than the victim
        and is not itself a suffering victim.

        The second condition matters with several latency-sensitive VMs
        under bursty load: a VM currently violating its own SLA is a
        casualty of the congestion, not its cause, and pricing it would
        let two victims throttle each other into a death spiral.
        """
        threshold = max(victim.windowed_mtus() * self.INTERFERER_MARGIN, 1.0)
        candidates = [
            vm
            for vm in self.vms
            if vm is not victim
            and vm.windowed_mtus() >= threshold
            and not (vm.detector is not None and vm.detector.last_pct > 0)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda vm: (vm.windowed_mtus(), -vm.domid))

    def get_io_share(
        self, victim: MonitoredVM, interferer: MonitoredVM
    ) -> float:
        """IOShare = interferer's MTUs / all monitored VMs' MTUs (§VI-C),
        over the attribution window."""
        total = sum(vm.windowed_mtus() for vm in self.vms)
        if total <= 0:
            return 0.0
        return interferer.windowed_mtus() / total

    def set_cap(self, vm: MonitoredVM, cap_percent: int) -> None:
        """SetVMCap: actuate through the hypervisor.

        An unchanged cap is not re-applied: the hypervisor would write
        the same value and emit nothing, so skipping it changes no
        event and no scheduling decision.
        """
        cap = int(round(cap_percent))
        cap = max(1, min(100, cap))
        if cap == vm.vcpu.cap_percent:
            return
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                "resex",
                "pricing_decision",
                self.env.now,
                lane=f"dom{vm.domid}",
                domid=vm.domid,
                cap_pct=cap,
                charge_rate=vm.charge_rate,
                balance=vm.account.balance if vm.account else None,
                policy=self.policy.name,
            )
        self.node.xenstat.set_cap(vm.domid, cap)

    def get_cap(self, vm: MonitoredVM) -> int:
        return vm.vcpu.cap_percent

    @property
    def epoch_fraction_remaining(self) -> float:
        """Fraction of the current epoch still ahead."""
        p = self.reso_params
        into = self.env.now % p.epoch_ns
        return 1.0 - into / p.epoch_ns

    def __repr__(self) -> str:
        return (
            f"<ResExController {self.policy.name} vms={len(self.vms)} "
            f"intervals={self.intervals_run}>"
        )
