"""Core event types for the discrete-event kernel.

The kernel follows the classic generator-driven design: a
:class:`~repro.sim.process.Process` is a generator that *yields* events;
when a yielded event triggers, the kernel resumes the generator with the
event's value (or throws the event's exception into it).

Events move through three states:

``pending``  -> created, not yet triggered
``triggered``-> has a value/exception and is scheduled
``processed``-> its callbacks have run

Unlike wall-clock frameworks there is no concurrency here; callbacks run
synchronously inside ``Environment.run_window`` in deterministic order.

Hot-path note: triggering an event appends directly to the
environment's FIFO of events due now (the exact operation
:meth:`Environment.schedule` performs for a zero delay at NORMAL
priority) instead of going through the method call, and a
:class:`Timeout` pushes onto the heap itself unless its delay is zero.
``succeed``/``fail``/``Timeout`` together schedule the majority of
events in a run, and the kernel's per-event budget is small; an event
on the FIFO skips the heap's push and pop altogether.
Callback lists support *tombstones*: a cancelled slot is set to
``None`` in place (O(1)) rather than removed by a list scan, and the
dispatch loop skips dead slots.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
PENDING = object()

# Scheduling priorities: URGENT events at the same timestamp run before
# NORMAL ones.  Used by the kernel for interrupts and process bootstrap.
# DELIVERY is reserved for cross-domain mailbox wake-ups
# (:mod:`repro.sim.shard`): they must run before *any* same-timestamp
# domain event regardless of heap insertion order, because in a
# partitioned run the wake-up may be armed at a barrier (between
# windows) rather than during event execution, so its sequence number
# carries no cross-mode meaning.
DELIVERY = -1
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.  Set to
        #: ``None`` after processing, which doubles as the "processed" flag.
        #: A slot holding ``None`` is a tombstone: a cancelled waiter.
        self.callbacks: Optional[List[Optional[Callable[["Event"], None]]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set once a waiter has consumed this event's failure, so the
        #: kernel does not re-raise it out of the run loop.
        self._defused: bool = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance on failure)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._fifo.append((env._now, NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        env._fifo.append((env._now, NORMAL, env._seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation.

    It carries its value from creation, so ``_value`` alone does not say
    it has fired; :func:`fired` reads its due time ``at`` as well.
    """

    __slots__ = ("at",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        at = self.at = env._now + delay
        env._seq += 1
        if delay:
            heappush(env._queue, (at, NORMAL, env._seq, self))
        else:
            env._fifo.append((at, NORMAL, env._seq, self))

    def __repr__(self) -> str:
        return f"<Timeout at={self.at}ns at {id(self):#x}>"


def fired(event: Event) -> bool:
    """True once ``event``'s outcome holds at the current instant: it
    has been processed, or it is triggered and due now.

    The one "has fired" test outside the kernel's dispatch loop.  For
    any event but a :class:`Timeout` it is ``_value is not PENDING``;
    a ``Timeout`` holds its value from creation and has fired only once
    its time has come.
    """
    if event.callbacks is None:
        return True
    if event._value is PENDING:
        return False
    return not isinstance(event, Timeout) or event.at <= event.env._now


class Initialize(Event):
    """Internal event that kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Event") -> None:
        self.env = env
        self.callbacks = [process._resume_cb]  # type: ignore[attr-defined]
        self._ok = True
        self._value = None
        self._defused = False
        env._seq += 1
        heappush(env._queue, (env._now, URGENT, env._seq, self))


class ConditionValue:
    """Mapping-like result of a condition: the triggered sub-events in order."""

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over a set of sub-events.

    ``evaluate`` receives (events, trigger_count) and returns True when
    the condition is satisfied.  Use :class:`AllOf` / :class:`AnyOf`.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        # Check already-processed events immediately; subscribe to the rest.
        check = self._check
        for event in self._events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

        if self._value is PENDING and self._evaluate(self._events, self._count):
            self.succeed(ConditionValue(self._collect_triggered()))

    def _collect_triggered(self) -> List[Event]:
        # The value lists the sub-events the kernel has processed, as
        # SimPy's does: stricter than :func:`fired`, which also counts a
        # triggered event that is due now but not yet dispatched.
        return [e for e in self._events if e.callbacks is None]

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Propagate the first failure through the condition.
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue(self._collect_triggered()))

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Triggers when every sub-event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers when any one sub-event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class FirstOf(Event):
    """Triggers with the outcome of whichever of two events fires first.

    The lean two-event form of :class:`AnyOf` for waiters that never
    read the condition's value: it is scheduled at the same
    ``(now, NORMAL, seq)`` an ``AnyOf([a, b])`` would be, and a failure
    propagates (and is defused) the same way, but its value is the
    winning event's value rather than a :class:`ConditionValue`, and
    it skips the evaluate callback and the sub-event bookkeeping.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", a: Event, b: Event) -> None:
        if a.env is not env or b.env is not env:
            raise SimulationError("cannot mix events from different environments")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        check = self._check
        for event in (a, b):
            cbs = event.callbacks
            if cbs is None:
                check(event)
            elif self._value is PENDING:
                cbs.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        ok = self._ok = event._ok
        if not ok:
            # Propagate the first failure, as Condition does.
            event._defused = True
        self._value = event._value
        env = self.env
        env._seq += 1
        env._fifo.append((env._now, NORMAL, env._seq, self))


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        return self.args[0]

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"
