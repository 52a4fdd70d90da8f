"""Generator-driven processes for the discrete-event kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, URGENT, Event, Initialize, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process.

    A process wraps a generator that yields :class:`Event` instances.
    The process itself is an event that triggers when the generator
    returns (value = return value) or raises (failure).
    """

    __slots__ = ("_generator", "_target", "_target_slot", "_resume_cb", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when active).
        self._target: Optional[Event] = None
        #: Index of our callback in the target's callback list, so an
        #: interrupt can tombstone it in O(1) instead of scanning.
        self._target_slot: int = -1
        #: The bound resume callback, created once.  Waiting on an event
        #: appends this exact object, which makes the tombstone identity
        #: check valid and avoids allocating a bound method per wait.
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the
        event stays valid and may be re-awaited).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks = [self._deliver_interrupt]
        self.env.schedule(interrupt_event, priority=URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        """Throw the interrupt in, unless the process ended after it was
        scheduled (an earlier interrupt at the same instant ended it):
        then it is dropped, as SimPy does."""
        if self._value is PENDING:
            self._resume(event)
        else:
            event._defused = True

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        tel = env.telemetry
        if tel.kernel_dispatch:
            tel.kernel_resume(env._now, self.name)

        # Detach from the previous target if we were interrupted while
        # waiting on a still-pending event: tombstone our callback slot
        # (the dispatch loop skips None entries).
        target = self._target
        if target is not None and target is not event:
            cbs = target.callbacks
            if cbs is not None:
                slot = self._target_slot
                if 0 <= slot < len(cbs) and cbs[slot] is self._resume_cb:
                    cbs[slot] = None
        self._target = None

        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event's exception is thrown into the generator;
                    # mark it defused so the kernel does not re-raise it.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_event = generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_event = generator.throw(
                            SimulationError(repr(exc))
                        )
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                msg = (
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = SimulationError(msg)
                continue

            if next_event.env is not env:
                event = Event(env)
                event._ok = False
                event._value = SimulationError(
                    "yielded event belongs to a different environment"
                )
                continue

            cbs = next_event.callbacks
            if cbs is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                self._target_slot = len(cbs)
                cbs.append(self._resume_cb)
                self._target = next_event
                break

            # Already processed: loop around immediately with its outcome.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
