"""Fault campaigns: declarative, seed-reproducible failure schedules.

A *campaign* is a set of :class:`Fault` specs — what breaks, when, for
how long, and how badly.  Campaigns come from two generators:

* :meth:`FaultCampaign.scripted` — an explicit fault list, for
  regression tests and the CLI presets;
* :meth:`FaultCampaign.stochastic` — a seeded MTBF/MTTR renewal
  process per fault kind, for chaos sweeps.

The :class:`FaultEngine` drives a campaign as an ordinary simulation
process off the :class:`~repro.sim.core.Environment`: at each fault's
start it calls the registered injector for that kind, and at start +
duration it clears it again.  Injectors (see
:mod:`repro.faults.injectors`) flip the small explicit hooks each layer
exposes — link degradation factors, HCA stall fields, IBMon staleness
flags, controller pause — so the failure semantics live with the
component they break, and the engine stays a pure scheduler.

Everything here is deterministic for a fixed seed: fault order is a
total order (start, kind, target), stochastic draws come from named
:class:`~repro.sim.rng.RngRegistry` streams, and injections happen at
integer-nanosecond instants inside the (already total) event order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.telemetry.bus import FAULTS
from repro.units import MS, SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.sim.core import Environment


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    ``severity`` is a kind-specific magnitude in [0, 1]: the *lost*
    fraction of link capacity for ``link-degrade`` (1.0 = flap to
    zero), the fraction of the injector's maximum stall for HCA
    delays, and ignored by the binary kinds (dropout, outage, freeze).
    """

    kind: str
    target: str
    start_ns: int
    duration_ns: int
    severity: float = 1.0

    def __post_init__(self) -> None:
        if not self.kind:
            raise FaultError("fault kind must be non-empty")
        if self.start_ns < 0:
            raise FaultError(f"fault start must be >= 0, got {self.start_ns}")
        if self.duration_ns <= 0:
            raise FaultError(
                f"fault duration must be > 0, got {self.duration_ns}"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise FaultError(
                f"fault severity must be in [0, 1], got {self.severity}"
            )

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def __repr__(self) -> str:
        return (
            f"<Fault {self.kind}:{self.target} "
            f"@{self.start_ns / SEC:.3f}s +{self.duration_ns / MS:.1f}ms "
            f"sev={self.severity:.2f}>"
        )


@dataclass(frozen=True)
class FaultCampaign:
    """An ordered, validated set of faults."""

    name: str
    faults: Tuple[Fault, ...]

    @classmethod
    def scripted(cls, faults: Iterable[Fault], name: str = "scripted") -> "FaultCampaign":
        """Build a campaign from an explicit fault list.

        Faults are sorted into the canonical (start, kind, target)
        order; overlapping windows on the same (kind, target) are
        rejected because clears would then fight over the same hook.
        """
        ordered = tuple(
            sorted(faults, key=lambda f: (f.start_ns, f.kind, f.target))
        )
        last_end: Dict[Tuple[str, str], int] = {}
        for fault in ordered:
            key = (fault.kind, fault.target)
            if fault.start_ns < last_end.get(key, 0):
                raise FaultError(
                    f"overlapping faults on {fault.kind}:{fault.target} "
                    f"(second starts at {fault.start_ns} ns)"
                )
            last_end[key] = fault.end_ns
        return cls(name=name, faults=ordered)

    @classmethod
    def stochastic(
        cls,
        specs: Sequence["RenewalSpec"],
        horizon_ns: int,
        rng: "np.random.Generator",
        name: str = "stochastic",
    ) -> "FaultCampaign":
        """Generate a campaign from MTBF/MTTR renewal processes.

        Each spec alternates exponentially-distributed up-times (mean
        ``mtbf_ns``) and down-times (mean ``mttr_ns``) until the
        horizon; each down-time becomes one fault.  Draw order is the
        spec order, so the same generator state always yields the same
        campaign.
        """
        if horizon_ns <= 0:
            raise FaultError("campaign horizon must be positive")
        faults: List[Fault] = []
        for spec in specs:
            t = 0
            while True:
                t += max(int(rng.exponential(spec.mtbf_ns)), 1)
                if t >= horizon_ns:
                    break
                duration = max(int(rng.exponential(spec.mttr_ns)), 1)
                duration = min(duration, horizon_ns - t)
                faults.append(
                    Fault(
                        kind=spec.kind,
                        target=spec.target,
                        start_ns=t,
                        duration_ns=duration,
                        severity=spec.severity,
                    )
                )
                t += duration
        return cls.scripted(faults, name=name)

    def __len__(self) -> int:
        return len(self.faults)

    def kinds(self) -> List[str]:
        """Distinct fault kinds, sorted."""
        return sorted({f.kind for f in self.faults})

    def horizon_ns(self) -> int:
        """End of the last fault window (0 for an empty campaign)."""
        return max((f.end_ns for f in self.faults), default=0)


@dataclass(frozen=True)
class RenewalSpec:
    """MTBF/MTTR parameters for one stochastic fault source."""

    kind: str
    target: str
    mtbf_ns: int
    mttr_ns: int
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.mtbf_ns <= 0 or self.mttr_ns <= 0:
            raise FaultError("MTBF and MTTR must be positive")


class Injector:
    """Base class for per-layer fault injectors.

    Subclasses set :attr:`kind` and implement :meth:`inject` /
    :meth:`clear`; both receive the full :class:`Fault` so severity and
    target can parameterize the effect.
    """

    kind: str = ""

    def inject(self, fault: Fault) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def clear(self, fault: Fault) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r}>"


@dataclass
class FaultEngine:
    """Schedules a campaign's injections against a running simulation."""

    env: "Environment"
    campaign: FaultCampaign
    injectors: Dict[str, Injector] = field(default_factory=dict)
    #: (fault, injected_at, cleared_at) for every completed window.
    log: List[Tuple[Fault, int, Optional[int]]] = field(default_factory=list)
    injected: int = 0
    cleared: int = 0
    _started: bool = False

    def register(self, injector: Injector) -> "FaultEngine":
        """Attach an injector; returns self for chaining."""
        if not injector.kind:
            raise FaultError(f"{injector!r} declares no kind")
        if injector.kind in self.injectors:
            raise FaultError(f"duplicate injector for kind {injector.kind!r}")
        self.injectors[injector.kind] = injector
        return self

    def start(self) -> None:
        """Validate coverage and launch the campaign process."""
        if self._started:
            raise FaultError("fault engine already started")
        missing = [k for k in self.campaign.kinds() if k not in self.injectors]
        if missing:
            raise FaultError(
                f"no injector registered for fault kinds {missing} "
                f"(have {sorted(self.injectors)})"
            )
        self._started = True
        if self.campaign.faults:
            self.env.process(self._run(), name="fault-engine")

    # -- the campaign process ----------------------------------------------
    def _run(self):
        env = self.env
        for fault in self.campaign.faults:
            if fault.start_ns > env.now:
                yield env.timeout(fault.start_ns - env.now)
            self._inject(fault)
            env.process(self._clear_later(fault), name=f"fault-clear-{fault.kind}")

    def _clear_later(self, fault: Fault):
        yield self.env.timeout(fault.duration_ns)
        self._clear(fault)

    def _inject(self, fault: Fault) -> None:
        self.injectors[fault.kind].inject(fault)
        self.injected += 1
        self.log.append((fault, self.env.now, None))
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                FAULTS,
                "inject",
                self.env.now,
                lane=f"{fault.kind}:{fault.target}",
                kind=fault.kind,
                target=fault.target,
                severity=fault.severity,
                duration_ns=fault.duration_ns,
            )

    def _clear(self, fault: Fault) -> None:
        self.injectors[fault.kind].clear(fault)
        self.cleared += 1
        for i, (logged, injected_at, cleared_at) in enumerate(self.log):
            if logged is fault and cleared_at is None:
                self.log[i] = (logged, injected_at, self.env.now)
                break
        tel = self.env.telemetry
        if tel.enabled:
            tel.event(
                FAULTS,
                "clear",
                self.env.now,
                lane=f"{fault.kind}:{fault.target}",
                kind=fault.kind,
                target=fault.target,
            )

    @property
    def active(self) -> List[Fault]:
        """Faults currently injected but not yet cleared."""
        return [f for f, _, cleared_at in self.log if cleared_at is None]

    def __repr__(self) -> str:
        return (
            f"<FaultEngine {self.campaign.name!r} faults={len(self.campaign)} "
            f"injected={self.injected} cleared={self.cleared}>"
        )
