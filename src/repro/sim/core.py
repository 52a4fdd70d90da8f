"""The discrete-event simulation environment.

Time is an integer number of nanoseconds (see :mod:`repro.units`).  Every
event is keyed by ``(time, priority, sequence)`` so execution order is
fully deterministic for a given program.  NORMAL events due now (about
half of all events) go on a FIFO instead of the heap: they all carry
``time == now`` and rising sequence numbers, so the FIFO is sorted, and
dispatching the smaller of its head and the heap top by the full key
gives exactly a single heap's order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Iterable, List, Optional, Tuple

from repro import telemetry
from repro.errors import SimulationError, StopSimulation
from repro.sim import invariants
from repro.sim.invariants import GUARD_EVENT_TIME
from repro.sim.events import (
    NORMAL,
    PENDING,
    AllOf,
    AnyOf,
    Event,
    FirstOf,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator

#: Sentinel time returned by :meth:`Environment.peek` when the event
#: queue is empty: the largest representable int64 nanosecond instant,
#: i.e. "no event will ever fire".  Compare against this instead of
#: re-deriving ``2**63 - 1`` at call sites.
INFINITY: int = 2**63 - 1


class Environment:
    """Execution environment for a single simulation.

    Parameters
    ----------
    initial_time:
        Starting simulation time in nanoseconds.
    """

    def __init__(self, initial_time: int = 0) -> None:
        self._now: int = int(initial_time)
        self._queue: List[Tuple[int, int, int, Event]] = []
        #: NORMAL entries due at ``now``, in key order (module docstring).
        self._fifo: Deque[Tuple[int, int, int, Event]] = deque()
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._events_processed: int = 0
        #: The telemetry bus every component of this simulation emits
        #: through.  Defaults to whatever bus is installed globally —
        #: the shared disabled NULL_BUS unless a trace is being
        #: captured (see :mod:`repro.telemetry`).
        self.telemetry = telemetry.current()
        #: The runtime invariant monitor every component of this
        #: simulation checks through.  Defaults to whatever monitor is
        #: installed globally — the shared disabled NULL_MONITOR unless
        #: a guard mode is active (see :mod:`repro.sim.invariants`).
        self.invariants = invariants.current()

    # -- introspection --------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time (ns)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (kernel statistic)."""
        return self._events_processed

    @property
    def queue_length(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._queue) + len(self._fifo)

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` ns."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering once all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering once any of ``events`` has triggered."""
        return AnyOf(self, events)

    def first_of(self, a: Event, b: Event) -> FirstOf:
        """Event triggering with the outcome of whichever of ``a``/``b``
        fires first (a lean :meth:`any_of` whose value is the winner's)."""
        return FirstOf(self, a, b)

    # -- scheduling -------------------------------------------------------------
    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        """Schedule a triggered event ``delay`` ns in the future."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0 and priority == NORMAL:
            self._fifo.append((self._now, NORMAL, self._seq, event))
        else:
            heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> int:
        """Time of the next scheduled event, or :data:`INFINITY` if empty."""
        if self._fifo:
            return self._now
        if not self._queue:
            return INFINITY
        return self._queue[0][0]

    def run_window(self, limit: int) -> int:
        """Process every event with timestamp *strictly below* ``limit``.

        The kernel's one dispatch loop.  :meth:`run` drives it with no
        bound; the shard kernel (:mod:`repro.sim.shard`) advances each
        shard's heap in half-open windows ``[B_k, B_k+1)`` so that an
        event at exactly the next barrier time is never pulled into the
        current window — cross-shard messages delivered *at* a barrier
        must still order before it.  Events at ``limit`` (and the clock
        advance to ``limit``) belong to the caller's next window.

        Returns the number of events processed.
        """
        queue = self._queue
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        inv = self.invariants
        base = self._events_processed
        while True:
            # The smaller of the two heads, by the full key.
            if fifo and not (queue and queue[0] < fifo[0]):
                if fifo[0][0] >= limit:
                    break
                when, _prio, _seq, event = popleft()
            elif queue and queue[0][0] < limit:
                when, _prio, _seq, event = heappop(queue)
            else:
                break
            # Event-time monotonicity guard: one int compare on the
            # healthy path; the monitor is consulted only on an actual
            # regression, and only when a guard mode is on.
            if when < self._now and inv.enabled:
                inv.violation(
                    GUARD_EVENT_TIME,
                    when,
                    f"event at t={when} dispatched after now={self._now}",
                    now=self._now,
                )
            self._now = when

            callbacks = event.callbacks
            event.callbacks = None  # mark processed
            if callbacks:
                for callback in callbacks:
                    if callback is not None:  # skip tombstoned waiters
                        callback(event)
            self._events_processed += 1
            # Re-read per event: a bus may be installed on the
            # environment at any point before its first event fires.
            # The disabled bus costs only this load and branch.
            tel = self.telemetry
            if tel.enabled:
                tel.kernel_tick(
                    when, self._events_processed, len(queue) + len(fifo), event
                )

            if not event._ok and not event._defused:
                exc = event._value
                if isinstance(exc, BaseException):
                    raise exc
                raise SimulationError(repr(exc))  # pragma: no cover
        return self._events_processed - base

    def run(self, until: "int | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``  -> run until the event queue empties.
            ``int``   -> run until simulation time reaches that value (ns).
            ``Event`` -> run until the event triggers; returns its value.
        """
        entry: Optional[Tuple[int, int, int, Event]] = None
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: nothing to run.
                return until._value
            until.callbacks.append(_stop_callback)
        elif until is not None:
            at = int(until)
            if at < self._now:
                raise SimulationError(
                    f"until={at} is in the past (now={self._now})"
                )
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks = [_stop_callback]  # type: ignore[list-item]
            # Schedule directly at absolute time with lowest priority so
            # all events at `at` with normal priority run first.
            self._seq += 1
            entry = (at, NORMAL + 1, self._seq, stop_event)
            heapq.heappush(self._queue, entry)

        try:
            self.run_window(INFINITY)
            if isinstance(until, Event) and until._value is PENDING:
                raise SimulationError(
                    "run(until=event) ended before the event triggered "
                    "(event queue is empty)"
                )
        except StopSimulation as stop:
            return stop.value
        except BaseException:
            # A run that ends short of its stop must not leave the stop
            # behind, or a later run would end at this run's bound.
            if entry is not None and entry in self._queue:
                self._queue.remove(entry)
                heapq.heapify(self._queue)
            elif isinstance(until, Event) and until.callbacks is not None:
                # Tombstone rather than remove: waiters hold slot indices.
                until.callbacks[until.callbacks.index(_stop_callback)] = None
            raise
        return None


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    raise event._value
