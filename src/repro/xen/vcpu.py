"""Virtual CPUs and the work items applications run on them.

Guest code never advances simulation time directly; it submits work to
its VCPU and waits.  The credit scheduler decides when the VCPU
actually runs, which is how CPU caps throttle a VM's I/O issue rate —
the causal link at the heart of ResEx (paper §V-B).

Two kinds of work exist:

* :class:`Compute` — a fixed amount of CPU time (request processing,
  posting a work request, ...).
* :class:`PollUntil` — busy-polling a completion queue: consumes CPU
  for as long as the VCPU is scheduled, finishing only once the awaited
  event has fired *and* the VCPU is running to observe it.  This models
  the fact that a descheduled (capped) VM cannot notice completions.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import SchedulerError
from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment
    from repro.xen.credit import PCPUScheduler


class WorkItem:
    """Base class for schedulable guest work.

    Each subclass sets its ``done`` completion event itself.
    """

    __slots__ = ("done",)


class Compute(WorkItem):
    """A fixed quantity of CPU time."""

    __slots__ = ("remaining",)

    def __init__(self, env: "Environment", duration_ns: int) -> None:
        if duration_ns < 0:
            raise SchedulerError(f"negative compute duration: {duration_ns}")
        self.done = Event(env)
        self.remaining = int(duration_ns)


class PollUntil(WorkItem):
    """Busy-poll until ``event`` fires (observed while scheduled).

    The scheduler reads "fires" as :func:`repro.sim.events.fired`: a
    ``Timeout`` counts only once its time has come.
    """

    __slots__ = ("event", "check_cost_ns", "polled_ns")

    def __init__(
        self, env: "Environment", event: Event, check_cost_ns: int
    ) -> None:
        if check_cost_ns <= 0:
            raise SchedulerError(f"check cost must be > 0: {check_cost_ns}")
        self.done = Event(env)
        self.event = event
        self.check_cost_ns = int(check_cost_ns)
        #: Total CPU time burned polling (the PTime ingredient).
        self.polled_ns = 0


class VCPU:
    """One virtual CPU, bound to a physical CPU's credit scheduler."""

    def __init__(
        self,
        env: "Environment",
        vcpu_id: int,
        weight: int = 256,
        cap_percent: int = 100,
    ) -> None:
        if weight < 1:
            raise SchedulerError(f"weight must be >= 1, got {weight}")
        self.env = env
        self.vcpu_id = vcpu_id
        self.weight = weight
        self._cap_percent = 0
        #: Memoized (period_ns -> budget_ns) pair; the scheduler asks for
        #: the budget several times per scheduling decision with the same
        #: period, so the division is done once per cap change instead.
        self._budget_period_ns = -1
        self._budget_ns = 0
        self.cap_percent = cap_percent  # validated by the setter
        self._cumulative_ns: int = 0
        #: Set while the scheduler is actively running this VCPU, so the
        #: cumulative counter ticks continuously (as real XenStat's does).
        self._running_since: Optional[int] = None
        #: CPU time consumed in the scheduler's current accounting period.
        self.used_in_period: int = 0
        #: Weighted virtual time for fair scheduling: advances by
        #: (time run)/weight and never resets, so shares converge to the
        #: weight ratio regardless of period boundaries or quantum size.
        self.vtime: float = 0.0
        #: Set when the work queue goes empty->nonempty; the scheduler
        #: clamps vtime on wake so an idle VCPU cannot hoard credit.
        self._needs_vtime_clamp: bool = False
        #: Fault-injection hook (:mod:`repro.faults`): a frozen VCPU is
        #: never eligible to run, regardless of queued work — the
        #: behavioural analog of ``xl pause``.  Work keeps queueing and
        #: resumes when the freeze lifts.
        self.frozen: bool = False
        self._work: Deque[WorkItem] = deque()
        self.scheduler: Optional["PCPUScheduler"] = None

    # -- cap ------------------------------------------------------------------
    @property
    def cap_percent(self) -> int:
        return self._cap_percent

    @cap_percent.setter
    def cap_percent(self, value: int) -> None:
        value = int(value)
        if not 0 < value <= 100:
            raise SchedulerError(
                f"cap must be in (0, 100], got {value} "
                "(a 0 cap would permanently stall the VCPU)"
            )
        self._cap_percent = value
        self._budget_period_ns = -1  # invalidate the budget memo

    def cap_budget_ns(self, period_ns: int) -> int:
        """CPU time this VCPU may use per accounting period."""
        if period_ns != self._budget_period_ns:
            self._budget_period_ns = period_ns
            self._budget_ns = period_ns * self._cap_percent // 100
        return self._budget_ns

    # -- accounting --------------------------------------------------------
    @property
    def cumulative_ns(self) -> int:
        """Total CPU time consumed since creation (XenStat counter).

        Includes the in-progress quantum, so samplers reading between
        scheduling events see a continuously advancing counter.
        """
        total = self._cumulative_ns
        if self._running_since is not None:
            total += self.env.now - self._running_since
        return total

    # -- work submission --------------------------------------------------------
    def has_work(self) -> bool:
        return bool(self._work)

    def compute(self, duration_ns: int) -> Event:
        """Submit a compute burst; returns its completion event."""
        item = Compute(self.env, duration_ns)
        self._submit(item)
        return item.done

    def poll_until(self, event: Event, check_cost_ns: int = 200) -> Event:
        """Submit a busy-poll; completion value is the polled CPU time (ns)."""
        item = PollUntil(self.env, event, check_cost_ns)
        self._submit(item)
        return item.done

    def _submit(self, item: WorkItem) -> None:
        scheduler = self.scheduler
        if scheduler is None:
            raise SchedulerError(
                f"VCPU {self.vcpu_id} is not attached to a scheduler"
            )
        if not self._work:
            self._needs_vtime_clamp = True
        self._work.append(item)
        # PCPUScheduler.notify_work, inlined: one submission per request.
        signal = scheduler._work_signal
        if signal is not None and signal._value is PENDING:
            signal.succeed()

    def __repr__(self) -> str:
        return (
            f"<VCPU {self.vcpu_id} weight={self.weight} "
            f"cap={self._cap_percent}% queued={len(self._work)}>"
        )
