"""Measurement probes: time-series and counters.

Every statistic reported by the benchmark harness flows through these
recorders so the analysis layer has one uniform representation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class TimeSeries:
    """An append-only series of (time_ns, value) samples.

    The numpy views returned by :attr:`times` / :attr:`values` are
    cached between appends, so repeated analysis passes over a finished
    series do not re-copy it on every access.  Treat the returned
    arrays as read-only: they are shared until the next ``record``.
    """

    __slots__ = ("name", "_times", "_values", "_times_arr", "_values_arr")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[int] = []
        self._values: List[float] = []
        self._times_arr: Optional[np.ndarray] = None
        self._values_arr: Optional[np.ndarray] = None

    def record(self, time_ns: int, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self._times and time_ns < self._times[-1]:
            raise ValueError(
                f"non-monotonic sample at {time_ns} (last {self._times[-1]})"
            )
        self._times.append(time_ns)
        self._values.append(float(value))
        self._times_arr = None
        self._values_arr = None

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Sample times as an int64 array (ns)."""
        if self._times_arr is None:
            self._times_arr = np.asarray(self._times, dtype=np.int64)
        return self._times_arr

    @property
    def values(self) -> np.ndarray:
        """Sample values as a float64 array."""
        if self._values_arr is None:
            self._values_arr = np.asarray(self._values, dtype=np.float64)
        return self._values_arr

    def last(self) -> Tuple[int, float]:
        """Most recent (time, value) sample."""
        if not self._times:
            raise IndexError(f"time series {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def window(self, start_ns: int, end_ns: int) -> np.ndarray:
        """Values with start <= time < end."""
        times = self.times
        mask = (times >= start_ns) & (times < end_ns)
        return self.values[mask]

    def mean(self) -> float:
        if not self._values:
            return float("nan")
        return float(np.mean(self._values))

    def std(self) -> float:
        if not self._values:
            return float("nan")
        return float(np.std(self._values))

    def percentile(self, q: float) -> float:
        if not self._values:
            return float("nan")
        return float(np.percentile(self._values, q))


class Counter:
    """A monotonically increasing event counter with a cumulative value."""

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0

    def add(self, value: float = 1.0) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


class ProbeSet:
    """A named collection of series and counters owned by one component.

    Probes are the analysis-facing store; every sample is additionally
    mirrored onto the environment's telemetry bus (as a counter record
    in the ``prefix`` category) whenever tracing is enabled, so probe
    data shows up in exported traces without double bookkeeping at the
    call sites.

    A component that samples the same series on every tick resolves
    them once with :meth:`ts` and writes through :meth:`record_all`;
    :meth:`record` is the by-name form of the same single path.
    """

    def __init__(self, env: "Environment", prefix: str = "") -> None:
        self.env = env
        self.prefix = prefix
        self.series: Dict[str, TimeSeries] = {}
        self.counters: Dict[str, Counter] = {}

    def _key(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def ts(self, name: str) -> TimeSeries:
        """Get-or-create the named time series."""
        key = self._key(name)
        if key not in self.series:
            self.series[key] = TimeSeries(key)
        return self.series[key]

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        key = self._key(name)
        if key not in self.counters:
            self.counters[key] = Counter(key)
        return self.counters[key]

    def record(self, name: str, value: float) -> None:
        """Record a sample at the current simulation time."""
        self.record_all(((self.ts(name), value),))

    def record_all(self, samples: Iterable[Tuple[TimeSeries, float]]) -> None:
        """Record ``(series, value)`` samples, in order, at the current
        simulation time; each series was resolved by :meth:`ts`."""
        env = self.env
        now = env.now
        tel = env.telemetry
        cat = self.prefix or "probe"
        for series, value in samples:
            series.record(now, value)
            if tel.enabled:
                tel.counter(cat, series.name, now, value)


def sampled_mean(series: Sequence[float]) -> float:
    """Mean that tolerates empty sequences (returns NaN)."""
    arr = np.asarray(series, dtype=np.float64)
    return float(arr.mean()) if arr.size else float("nan")


def jitter(series: Sequence[float]) -> float:
    """Latency jitter: standard deviation of the sample set."""
    arr = np.asarray(series, dtype=np.float64)
    return float(arr.std()) if arr.size else float("nan")
