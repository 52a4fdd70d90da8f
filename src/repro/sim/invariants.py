"""Runtime invariant guards: self-checks the simulator runs on itself.

A campaign result is only trustworthy if the model obeyed its own laws
while producing it.  This module gives every layer a cheap, uniform
way to assert those laws at runtime — and gives campaigns a uniform
way to *record* violations instead of crashing, so a sweep with a
misbehaving cell degrades to an honestly-labelled partial result.

Three modes:

``off``
    The default.  A shared :data:`NULL_MONITOR` whose ``enabled`` flag
    is always ``False``; every check site guards with
    ``if inv.enabled:`` so the disabled cost is one attribute load and
    branch (the same contract the telemetry bus makes).
``record``
    Violations are appended to the monitor (bounded), emitted onto the
    currently-installed telemetry bus as ``invariant``-category
    instants, and execution continues.  The supervised sweep runtime
    copies them into the cell envelope and marks the cell's manifest
    record *tainted*.
``strict``
    The first violation raises a structured
    :class:`~repro.errors.InvariantViolation`.

Guards are registered by name at import time (:func:`register_guard`),
so ``GUARDS`` is a discoverable registry of every invariant the stack
checks:

* ``kernel.event_time_monotonic`` — the DES never dispatches an event
  timestamped before the current simulation time;
* ``fabric.rate_nonnegative`` / ``fabric.link_capacity`` — max-min
  allocations are non-negative and never oversubscribe a link;
* ``resex.reso_accounting`` — a Reso account's balance stays within
  ``[0, allocation]`` (conservation: what was deducted plus what
  remains never exceeds what was provisioned);
* ``credit.cap_budget`` — a capped VCPU never consumes more than its
  cap budget within one accounting period.

Like the telemetry bus, the monitor is installed process-globally
(:func:`install` / :func:`activate`); environments and components read
:func:`current` at check time, so one ``activate("strict")`` block
covers an entire scenario run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

from repro.errors import ConfigError, InvariantViolation

__all__ = [
    "MODES",
    "INVARIANT",
    "GUARDS",
    "Guard",
    "Violation",
    "InvariantMonitor",
    "NullInvariantMonitor",
    "NULL_MONITOR",
    "register_guard",
    "install",
    "deactivate",
    "current",
    "monitor_for_mode",
    "activate",
    "check_fabric_rates",
    "GUARD_EVENT_TIME",
    "GUARD_RATE_NONNEGATIVE",
    "GUARD_LINK_CAPACITY",
    "GUARD_RESO_ACCOUNTING",
    "GUARD_CREDIT_CAP",
]

#: Valid monitor modes.
MODES = ("off", "record", "strict")

#: Telemetry category violation records are emitted under.
INVARIANT = "invariant"

#: Bound on recorded violations per monitor: a pathological cell
#: violating an invariant every event must not exhaust memory; the
#: overflow is summarized in :attr:`InvariantMonitor.dropped`.
DEFAULT_MAX_RECORDS = 1024


class Guard(NamedTuple):
    """One registered invariant check."""

    name: str
    category: str
    description: str


#: name -> :class:`Guard`, populated at import time by the layers that
#: host the checks.
GUARDS: Dict[str, Guard] = {}


def register_guard(name: str, category: str, description: str) -> str:
    """Register an invariant guard; returns ``name`` for call sites."""
    GUARDS[name] = Guard(name, category, description)
    return name


class Violation(NamedTuple):
    """One recorded invariant violation."""

    guard: str
    category: str
    ts_ns: int
    message: str
    details: Tuple[Tuple[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "guard": self.guard,
            "category": self.category,
            "ts_ns": self.ts_ns,
            "message": self.message,
            "details": dict(self.details),
        }


class InvariantMonitor:
    """An enabled invariant monitor (``record`` or ``strict`` mode)."""

    __slots__ = ("enabled", "mode", "violations", "dropped", "max_records")

    def __init__(
        self, mode: str = "record", max_records: int = DEFAULT_MAX_RECORDS
    ) -> None:
        if mode not in ("record", "strict"):
            raise ConfigError(
                f"invariant monitor mode must be 'record' or 'strict', "
                f"got {mode!r} (use NULL_MONITOR / mode 'off' to disable)"
            )
        self.enabled: bool = True
        self.mode = mode
        self.violations: List[Violation] = []
        #: Violations dropped once ``max_records`` was reached.
        self.dropped: int = 0
        self.max_records = int(max_records)

    def violation(
        self,
        guard: str,
        ts_ns: int,
        message: str,
        **details: Any,
    ) -> None:
        """Report one violation of ``guard``.

        In ``strict`` mode raises :class:`InvariantViolation`; in
        ``record`` mode appends (bounded), mirrors the record onto the
        currently-installed telemetry bus, and returns.
        """
        spec = GUARDS.get(guard)
        category = spec.category if spec is not None else ""
        if self.mode == "strict":
            raise InvariantViolation(
                guard, message, category=category, ts_ns=ts_ns, details=details
            )
        if len(self.violations) < self.max_records:
            self.violations.append(
                Violation(guard, category, int(ts_ns), message, tuple(details.items()))
            )
        else:
            self.dropped += 1
        # Violations are rare by construction, so the late import and
        # bus lookup cost nothing on the healthy path.
        from repro import telemetry

        bus = telemetry.current()
        if bus.enabled:
            bus.instant(
                INVARIANT, guard, ts_ns, lane=category or INVARIANT,
                message=message, **details,
            )

    @property
    def tainted(self) -> bool:
        """True once any violation has been recorded."""
        return bool(self.violations) or self.dropped > 0

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Recorded violations as plain dicts (picklable, JSON-able)."""
        return [v.to_dict() for v in self.violations]

    def __repr__(self) -> str:
        return (
            f"<InvariantMonitor mode={self.mode} "
            f"violations={len(self.violations)}>"
        )


class NullInvariantMonitor:
    """The always-disabled monitor (mode ``off``)."""

    __slots__ = ()

    enabled = False
    mode = "off"
    dropped = 0
    tainted = False
    violations: Tuple[Violation, ...] = ()

    def violation(self, *args: Any, **kwargs: Any) -> None:
        pass

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def __repr__(self) -> str:
        return "<NullInvariantMonitor>"


#: The shared disabled monitor: checking is off by default.
NULL_MONITOR = NullInvariantMonitor()

_current: "InvariantMonitor | NullInvariantMonitor" = NULL_MONITOR


def install(
    monitor: "InvariantMonitor | NullInvariantMonitor",
) -> "InvariantMonitor | NullInvariantMonitor":
    """Make ``monitor`` the process-global invariant monitor."""
    global _current
    _current = monitor
    return monitor


def deactivate() -> None:
    """Restore the default (disabled) monitor."""
    install(NULL_MONITOR)


def current() -> "InvariantMonitor | NullInvariantMonitor":
    """The currently installed monitor (disabled by default)."""
    return _current


def monitor_for_mode(
    mode: str, max_records: int = DEFAULT_MAX_RECORDS
) -> "InvariantMonitor | NullInvariantMonitor":
    """A fresh monitor for ``mode`` (``"off"`` -> the shared null one)."""
    if mode not in MODES:
        raise ConfigError(
            f"unknown invariant mode {mode!r} (expected one of {MODES})"
        )
    if mode == "off":
        return NULL_MONITOR
    return InvariantMonitor(mode, max_records=max_records)


@contextmanager
def activate(
    mode: str = "record", max_records: int = DEFAULT_MAX_RECORDS
) -> Iterator["InvariantMonitor | NullInvariantMonitor"]:
    """Install a fresh monitor for the duration of a block::

        with invariants.activate("strict"):
            run_scenario(...)

    The previously installed monitor is restored on exit.
    """
    monitor = monitor_for_mode(mode, max_records=max_records)
    previous = _current
    install(monitor)
    try:
        yield monitor
    finally:
        install(previous)


# -- guard declarations -------------------------------------------------------
# Declared here (rather than scattered across the hosting modules) so
# importing this module alone yields the complete registry.

GUARD_EVENT_TIME = register_guard(
    "kernel.event_time_monotonic",
    "kernel",
    "the DES never dispatches an event timestamped before now",
)
GUARD_RATE_NONNEGATIVE = register_guard(
    "fabric.rate_nonnegative",
    "fabric",
    "max-min fair allocation assigns every transfer a rate >= 0",
)
GUARD_LINK_CAPACITY = register_guard(
    "fabric.link_capacity",
    "fabric",
    "allocated rates never oversubscribe a link's current capacity",
)
GUARD_RESO_ACCOUNTING = register_guard(
    "resex.reso_accounting",
    "resex",
    "a Reso account's balance stays within [0, allocation]",
)
GUARD_CREDIT_CAP = register_guard(
    "credit.cap_budget",
    "credit",
    "a capped VCPU never exceeds its cap budget within a period",
)

#: Relative slack for float-accumulation checks (capacity sums are
#: left-to-right float additions; exact equality is not a law).
FLOAT_SLACK = 1e-9


def check_fabric_rates(
    inv: "InvariantMonitor | NullInvariantMonitor",
    rates: Dict[Any, float],
    capacity_of,
    ts_ns: int = -1,
) -> None:
    """Check a max-min solution: rates >= 0, no link oversubscribed.

    Called by :func:`repro.hw.fabric.maxmin_rates` when a monitor is
    enabled; O(transfers x path length), never on the disabled path.
    """
    link_sums: Dict[Any, float] = {}
    for transfer, rate in rates.items():
        if rate < 0.0:
            inv.violation(
                GUARD_RATE_NONNEGATIVE,
                ts_ns,
                f"negative rate {rate!r} for {transfer!r}",
                rate=rate,
            )
        for link in transfer.path:
            link_sums[link] = link_sums.get(link, 0.0) + rate
    for link, total in link_sums.items():
        capacity = capacity_of(link)
        if total > capacity * (1.0 + FLOAT_SLACK) + FLOAT_SLACK:
            inv.violation(
                GUARD_LINK_CAPACITY,
                ts_ns,
                f"link {link.name!r} oversubscribed: "
                f"{total!r} > capacity {capacity!r}",
                link=link.name,
                allocated=total,
                capacity=capacity,
            )
