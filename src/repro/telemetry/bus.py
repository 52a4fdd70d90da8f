"""The telemetry bus: trace spans, typed counters and structured events.

Every layer of the stack — the DES kernel, the credit scheduler, the
HCA/fabric, IBMon, the ResEx controller and BenchEx — reports through
one :class:`TelemetryBus` instead of ad-hoc prints and private
counters.  Design constraints, in priority order:

1. **Zero overhead when disabled.**  The default bus is a shared
   :data:`NULL_BUS` whose ``enabled`` flag is always ``False``; every
   emit site guards with ``if tel.enabled:`` so the disabled cost is a
   single attribute load and branch.
2. **Deterministic.**  Records are keyed to simulation time (integer
   nanoseconds) and appended in event-callback order, which the kernel
   already makes total.  Two runs of the same seeded program produce
   identical record sequences, and therefore byte-identical exports.
3. **Structured.**  Records are typed (``span``/``instant``/
   ``counter``) and carry a category (the emitting layer), a lane (the
   hardware or software component, rendered as a thread in trace
   viewers) and a small args mapping.

Emitters pass timestamps explicitly (``env.now``) so the bus has no
clock coupling and can be unit-tested without a simulation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

#: Record kinds (the ``kind`` field of :class:`TraceRecord`).
SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"

#: Layer categories used across the stack (exporters render one
#: trace "process" per category).
KERNEL = "kernel"
CREDIT = "credit"
HCA = "hca"
FABRIC = "fabric"
IBMON = "ibmon"
RESEX = "resex"
BENCHEX = "benchex"
FAULTS = "faults"
#: Sweep-orchestration records (repro.parallel).  Unlike the layers
#: above, these are stamped with wall-clock nanoseconds since sweep
#: start — experiment orchestration happens in real time, not in any
#: one simulation's clock.
SWEEP = "sweep"
#: Live-serving records (repro.service): per-request gateway latency
#: accounting and orchestrator routing events.  Like ``sweep``, these
#: are stamped with wall-clock nanoseconds since gateway start — the
#: service handles real traffic even when its backend steps a
#: simulation's virtual clock.
SERVICE = "service"

#: How often (in processed events) the kernel emits queue-depth
#: counters when tracing is on.  Keeps the kernel layer visible in
#: traces without a per-event firehose.
DEFAULT_KERNEL_SAMPLE_EVERY = 256


class TraceRecord(NamedTuple):
    """One telemetry record.

    ``dur_ns`` is 0 for instants and counters; ``value`` is only
    meaningful for counters.  ``args`` is an immutable tuple of
    ``(key, value)`` pairs so records are hashable and cannot be
    mutated after emission.
    """

    kind: str
    cat: str
    name: str
    lane: str
    ts_ns: int
    dur_ns: int
    value: float
    args: Tuple[Tuple[str, Any], ...]

    def args_dict(self) -> Dict[str, Any]:
        return dict(self.args)


def _freeze_args(args: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(args.items())


class TelemetryBus:
    """An enabled, recording telemetry bus.

    Parameters
    ----------
    kernel_sample_every:
        Emit a kernel queue-depth/events-processed counter pair every
        this many processed events (0 disables kernel sampling).
    kernel_dispatch:
        Also emit one instant per kernel event dispatch and per process
        resume — the full firehose.  Off by default: it multiplies the
        record count by the event count and is only useful for
        microscopic kernel debugging.
    ring_capacity:
        ``None`` (default) keeps every record in an append-only list.
        A positive value switches to a preallocated ring of that many
        slots holding only the most recent records: bounded memory and
        no list growth for arbitrarily long traced runs (flight-recorder
        mode).  The emit path is selected once at construction so the
        per-record cost is a single bound-callable invocation either way.
    """

    __slots__ = (
        "enabled",
        "_records",
        "_emit",
        "_ring_capacity",
        "_ring_cursor",
        "_ring_full",
        "kernel_sample_every",
        "kernel_dispatch",
    )

    def __init__(
        self,
        kernel_sample_every: int = DEFAULT_KERNEL_SAMPLE_EVERY,
        kernel_dispatch: bool = False,
        ring_capacity: Optional[int] = None,
    ) -> None:
        self.enabled: bool = True
        self.kernel_sample_every = int(kernel_sample_every)
        self.kernel_dispatch = bool(kernel_dispatch)
        self._ring_cursor = 0
        self._ring_full = False
        if ring_capacity is None:
            self._ring_capacity = 0
            self._records: List[Optional[TraceRecord]] = []
            self._emit = self._records.append
        else:
            if ring_capacity <= 0:
                raise ValueError(
                    f"ring_capacity must be positive, got {ring_capacity}"
                )
            self._ring_capacity = int(ring_capacity)
            self._records = [None] * self._ring_capacity
            self._emit = self._ring_append

    def _ring_append(self, record: TraceRecord) -> None:
        cursor = self._ring_cursor
        self._records[cursor] = record
        cursor += 1
        if cursor == self._ring_capacity:
            cursor = 0
            self._ring_full = True
        self._ring_cursor = cursor

    @property
    def records(self) -> List[TraceRecord]:
        """Recorded telemetry in emission order.

        In ring mode this materializes the (up to ``ring_capacity``)
        retained records, oldest first.
        """
        if not self._ring_capacity:
            return self._records  # type: ignore[return-value]
        if not self._ring_full:
            return self._records[: self._ring_cursor]
        cursor = self._ring_cursor
        return self._records[cursor:] + self._records[:cursor]

    # -- emission -----------------------------------------------------------
    def span(
        self,
        cat: str,
        name: str,
        t_start_ns: int,
        t_end_ns: int,
        lane: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed span ``[t_start_ns, t_end_ns]``.

        Emitters call this once the span has finished (generator code
        cannot hold a context manager open across a scheduler yield),
        so nesting falls out of timestamp containment.
        """
        self._emit(
            TraceRecord(
                SPAN,
                cat,
                name,
                lane if lane is not None else cat,
                int(t_start_ns),
                int(t_end_ns) - int(t_start_ns),
                0.0,
                _freeze_args(args),
            )
        )

    def instant(
        self,
        cat: str,
        name: str,
        ts_ns: int,
        lane: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a point event at ``ts_ns``."""
        self._emit(
            TraceRecord(
                INSTANT,
                cat,
                name,
                lane if lane is not None else cat,
                int(ts_ns),
                0,
                0.0,
                _freeze_args(args),
            )
        )

    #: Structured event records are instants with args; alias for call
    #: sites where "event" reads better than "instant".
    event = instant

    def counter(
        self,
        cat: str,
        name: str,
        ts_ns: int,
        value: float,
        lane: Optional[str] = None,
    ) -> None:
        """Record a typed counter sample (rendered as a track)."""
        self._emit(
            TraceRecord(
                COUNTER,
                cat,
                name,
                lane if lane is not None else cat,
                int(ts_ns),
                0,
                float(value),
                (),
            )
        )

    # -- kernel hook --------------------------------------------------------
    def kernel_tick(
        self, ts_ns: int, events_processed: int, queue_depth: int, event: object
    ) -> None:
        """Called by :meth:`Environment.run_window` after each dispatch."""
        if self.kernel_dispatch:
            self.instant(
                KERNEL,
                type(event).__name__,
                ts_ns,
                lane="dispatch",
                seq=events_processed,
            )
        every = self.kernel_sample_every
        if every > 0 and events_processed % every == 0:
            self.counter(KERNEL, "queue_depth", ts_ns, queue_depth)
            self.counter(KERNEL, "events_processed", ts_ns, events_processed)

    def kernel_resume(self, ts_ns: int, process_name: str) -> None:
        """Called by :meth:`Process._resume` (firehose mode only)."""
        if self.kernel_dispatch:
            self.instant(KERNEL, "resume", ts_ns, lane="resume", process=process_name)

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        if not self._ring_capacity:
            return len(self._records)
        return self._ring_capacity if self._ring_full else self._ring_cursor

    def categories(self) -> List[str]:
        """Distinct categories, in first-emission order."""
        seen: Dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.cat, None)
        return list(seen)

    def select(self, kind: Optional[str] = None, cat: Optional[str] = None):
        """Filter records by kind and/or category."""
        return [
            r
            for r in self.records
            if (kind is None or r.kind == kind)
            and (cat is None or r.cat == cat)
        ]

    def clear(self) -> None:
        if not self._ring_capacity:
            self._records.clear()
        else:
            self._records = [None] * self._ring_capacity
            self._emit = self._ring_append
            self._ring_cursor = 0
            self._ring_full = False

    def __repr__(self) -> str:
        return f"<TelemetryBus records={len(self.records)} enabled={self.enabled}>"


class NullTelemetryBus:
    """The always-disabled bus installed by default.

    Its ``enabled`` flag is permanently ``False`` and its emit methods
    are no-ops, so an unguarded call site still costs nothing visible.
    A single shared instance (:data:`NULL_BUS`) backs every untraced
    :class:`~repro.sim.core.Environment`.
    """

    __slots__ = ()

    enabled = False
    kernel_dispatch = False
    kernel_sample_every = 0
    records: Tuple[TraceRecord, ...] = ()

    def span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    event = instant

    def counter(self, *args: Any, **kwargs: Any) -> None:
        pass

    def kernel_tick(self, *args: Any, **kwargs: Any) -> None:
        pass

    def kernel_resume(self, *args: Any, **kwargs: Any) -> None:
        pass

    def categories(self) -> List[str]:
        return []

    def select(self, kind: Optional[str] = None, cat: Optional[str] = None):
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NullTelemetryBus>"


#: The shared disabled bus.  ``Environment`` instances created while no
#: bus is installed point here.
NULL_BUS = NullTelemetryBus()

_current: "TelemetryBus | NullTelemetryBus" = NULL_BUS


def install(bus: "TelemetryBus | NullTelemetryBus") -> "TelemetryBus | NullTelemetryBus":
    """Make ``bus`` the bus newly created environments attach to."""
    global _current
    _current = bus
    return bus


def deactivate() -> None:
    """Restore the default (disabled) bus."""
    install(NULL_BUS)


def current() -> "TelemetryBus | NullTelemetryBus":
    """The currently installed bus (the disabled one by default)."""
    return _current


@contextmanager
def capture(**kwargs: Any) -> Iterator[TelemetryBus]:
    """Install a fresh recording bus for the duration of a block::

        with telemetry.capture() as bus:
            result = run_scenario(...)
        write_chrome_trace("trace.json", bus)

    The previously installed bus is restored on exit.
    """
    bus = TelemetryBus(**kwargs)
    previous = _current
    install(bus)
    try:
        yield bus
    finally:
        install(previous)
