"""Credit scheduler with CPU caps.

Behavioural model of Xen's credit scheduler as ResEx uses it
(paper §III, §V-B): time is divided into accounting periods (10 ms —
the "time slice" the paper refers to); within a period a VCPU may
consume at most ``cap%`` of the period, and otherwise shares the PCPU
with other runnable VCPUs in proportion to its weight.  The scheduler
is work-conserving except for caps: a capped-out VCPU is parked until
the next period even if the PCPU is idle — exactly the semantics that
let ResEx translate "charge this VM more" into "give it less CPU".

Differences from Xen's credit1 internals (documented simplification):
credits/UNDER/OVER bookkeeping is replaced by deficit-round-robin over
``used/weight`` within each period, which yields the same long-run
weighted shares and identical cap behaviour, with far fewer events.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulerError
from repro.sim.core import Environment
from repro.sim.events import PENDING, Event, FirstOf, Timeout, fired
from repro.sim.invariants import GUARD_CREDIT_CAP
from repro.units import MS
from repro.xen.vcpu import VCPU, Compute, PollUntil

#: Default accounting period: the 10 ms slice from the paper.
DEFAULT_PERIOD_NS = 10 * MS
#: Preemption quantum when several VCPUs compete for one PCPU.
DEFAULT_QUANTUM_NS = 1 * MS


class PCPUScheduler:
    """Schedules the VCPUs pinned to one physical CPU."""

    def __init__(
        self,
        env: Environment,
        pcpu_id: int,
        period_ns: int = DEFAULT_PERIOD_NS,
        quantum_ns: int = DEFAULT_QUANTUM_NS,
    ) -> None:
        if period_ns <= 0 or quantum_ns <= 0:
            raise SchedulerError("period and quantum must be positive")
        if quantum_ns > period_ns:
            raise SchedulerError("quantum cannot exceed the period")
        self.env = env
        self.pcpu_id = pcpu_id
        self.period_ns = period_ns
        self.quantum_ns = quantum_ns
        self.vcpus: List[VCPU] = []
        self._work_signal: Optional[Event] = None
        #: Total time the PCPU spent running guest work (utilization stat).
        self.busy_ns: int = 0
        self._proc = env.process(self._run(), name=f"sched-pcpu{pcpu_id}")

    # -- attachment ---------------------------------------------------------
    def attach(self, vcpu: VCPU) -> None:
        """Pin ``vcpu`` to this PCPU."""
        if vcpu.scheduler is not None:
            raise SchedulerError(f"{vcpu!r} is already attached")
        vcpu.scheduler = self
        self.vcpus.append(vcpu)
        self.notify_work()

    def notify_work(self) -> None:
        """Wake the scheduler loop if it is idling."""
        signal = self._work_signal
        if signal is not None and signal._value is PENDING:
            signal.succeed()

    # -- main loop -------------------------------------------------------------
    def _pick(self, eligible: List[VCPU]) -> VCPU:
        # Virtual-time fairness: clamp waking VCPUs so idleness earns no
        # credit, then run the smallest virtual time (stable tie-break).
        # Manual scans instead of min(..., key=lambda ...): this runs
        # once per scheduling decision and the lambda/tuple allocations
        # showed up in scenario profiles.
        running_floor: Optional[float] = None
        for v in eligible:
            if not v._needs_vtime_clamp and (
                running_floor is None or v.vtime < running_floor
            ):
                running_floor = v.vtime
        for v in eligible:
            if v._needs_vtime_clamp:
                if running_floor is not None and v.vtime < running_floor:
                    v.vtime = running_floor
                v._needs_vtime_clamp = False
        best = eligible[0]
        for v in eligible:
            if v.vtime < best.vtime or (
                v.vtime == best.vtime and v.vcpu_id < best.vcpu_id
            ):
                best = v
        return best

    def _run(self):
        env = self.env
        lane = f"pcpu{self.pcpu_id}"
        # self.vcpus is mutated in place by attach(), so the local alias
        # sees late attachments; period/quantum are construction-fixed.
        vcpus = self.vcpus
        period_ns = self.period_ns
        quantum_ns = self.quantum_ns
        while True:
            # --- new accounting period -------------------------------------
            tel = env.telemetry
            if tel.enabled:
                tel.instant(
                    "credit",
                    "accounting_period",
                    env.now,
                    lane=lane,
                    runnable=sum(1 for v in vcpus if v.has_work()),
                )
            for v in vcpus:
                v.used_in_period = 0
            period_end = env.now + period_ns

            while env._now < period_end:
                # One pass yields the eligible VCPUs, whether any work is
                # queued and whether any budget was used this period.
                eligible = []
                queued = used = False
                for v in vcpus:
                    if v.used_in_period:
                        used = True
                    if v._work:
                        queued = True
                        if not v.frozen and v.used_in_period < v.cap_budget_ns(
                            period_ns
                        ):
                            eligible.append(v)
                if not eligible:
                    signal = self._work_signal = Event(env)
                    if not queued and not used:
                        # Idle with a completely untouched period: sleep
                        # with no timer.  Re-phasing the period on wake is
                        # harmless because no budget has been consumed —
                        # never re-phase otherwise, or caps would reset
                        # whenever a work queue momentarily empties.
                        yield signal
                        self._work_signal = None
                        period_end = env._now + period_ns
                        continue
                    # Capped out, or idle mid-period: wait for work or the
                    # period boundary (budgets replenish only there).
                    yield FirstOf(env, signal, Timeout(env, period_end - env._now))
                    self._work_signal = None
                    continue

                horizon = period_end - env._now
                if len(eligible) == 1:
                    # A lone VCPU is its own pick (the clamp has nothing
                    # to act on) and runs to its budget/period edge.
                    vcpu = eligible[0]
                    vcpu._needs_vtime_clamp = False
                else:
                    # Competition: pick, and preempt at quantum granularity.
                    vcpu = self._pick(eligible)
                    if quantum_ns < horizon:
                        horizon = quantum_ns
                # Eligibility leaves budget, and the loop leaves period,
                # so the horizon is positive.
                budget_left = vcpu.cap_budget_ns(period_ns) - vcpu.used_in_period
                if budget_left < horizon:
                    horizon = budget_left
                slice_start = env._now
                work = vcpu._work
                item = work[0]
                # A PollUntil slice may legitimately overshoot the horizon
                # by the final poll check that observes the completion;
                # anything beyond that is a cap-accounting violation.
                slice_slack = 0
                vcpu._running_since = slice_start
                # --- run the head work item for at most `horizon` ------
                # (inlined rather than a `yield from` helper: one
                # generator frame per slice on the hottest loop)
                if isinstance(item, Compute):
                    ran = item.remaining
                    if horizon < ran:
                        ran = horizon
                    if ran > 0:
                        yield Timeout(env, ran)
                    item.remaining -= ran
                    if item.remaining <= 0:
                        work.popleft().done.succeed()
                elif isinstance(item, PollUntil):
                    slice_slack = item.check_cost_ns
                    done = item.event
                    if fired(done):
                        # Completion already there: one poll check sees it.
                        ran = item.check_cost_ns
                        if horizon < ran:
                            ran = horizon
                        yield Timeout(env, ran)
                        item.polled_ns += ran
                        work.popleft().done.succeed(item.polled_ns)
                    else:
                        yield FirstOf(env, Timeout(env, horizon), done)
                        ran = env._now - slice_start
                        item.polled_ns += ran
                        if fired(done):
                            # Charge the final poll check that observes
                            # the CQE.
                            d = item.check_cost_ns
                            yield Timeout(env, d)
                            item.polled_ns += d
                            ran += d
                            work.popleft().done.succeed(item.polled_ns)
                else:  # pragma: no cover
                    raise SchedulerError(f"unknown work item type: {item!r}")
                vcpu._running_since = None
                inv = env.invariants
                if inv.enabled and not (0 <= ran <= horizon + slice_slack):
                    inv.violation(
                        GUARD_CREDIT_CAP,
                        env.now,
                        f"vcpu{vcpu.vcpu_id} slice ran {ran}ns against a "
                        f"{horizon}ns cap-budget horizon",
                        vcpu=vcpu.vcpu_id,
                        ran_ns=ran,
                        horizon_ns=horizon,
                        slack_ns=slice_slack,
                        cap_pct=vcpu.cap_percent,
                    )
                vcpu.used_in_period += ran
                vcpu._cumulative_ns += ran
                vcpu.vtime += ran / vcpu.weight
                self.busy_ns += ran
                tel = env.telemetry
                if tel.enabled and ran > 0:
                    tel.span(
                        "credit",
                        f"vcpu{vcpu.vcpu_id}",
                        slice_start,
                        env.now,
                        lane=lane,
                        ran_ns=ran,
                        used_in_period_ns=vcpu.used_in_period,
                        cap_pct=vcpu.cap_percent,
                    )

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` spent running guest work."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / elapsed_ns

    def __repr__(self) -> str:
        return f"<PCPUScheduler pcpu={self.pcpu_id} vcpus={len(self.vcpus)}>"
