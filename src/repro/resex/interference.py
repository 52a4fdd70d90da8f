"""Interference detection from application latency feedback (§V-A, §VI-C).

The paper defines interference as a positive change in I/O latency
perceived by a VM.  ResEx's direct detection channel is the in-VM
agent's latency reports: the detector compares the recent window's mean
and standard deviation against the application's SLA baseline and
returns the percentage increase when it exceeds the allowed margin
(the "SLA guarantee" of Algorithm 2, line 6).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Sequence

import numpy as np

from repro.errors import PricingError


@dataclass(frozen=True)
class LatencySLA:
    """The service-level agreement of one latency-sensitive VM."""

    #: Expected (uncontended) mean latency in microseconds.
    base_mean_us: float
    #: Expected latency standard deviation in microseconds.
    base_std_us: float = 0.0
    #: Allowed mean increase (percent of base mean) before a violation.
    threshold_pct: float = 10.0
    #: Allowed jitter increase (percent of base mean) before a
    #: violation.  Looser than the mean threshold by default: once an
    #: interferer is throttled, rare residual collisions keep the
    #: window's stddev elevated long after the mean has recovered, and
    #: an aggressive jitter trigger would pin the congestion price at
    #: its maximum forever.
    jitter_threshold_pct: float = 25.0

    def __post_init__(self) -> None:
        if self.base_mean_us <= 0:
            raise PricingError("base_mean_us must be positive")
        if self.base_std_us < 0:
            raise PricingError("base_std_us must be >= 0")
        if self.threshold_pct < 0:
            raise PricingError("threshold_pct must be >= 0")
        if self.jitter_threshold_pct < 0:
            raise PricingError("jitter_threshold_pct must be >= 0")


class InterferenceDetector:
    """Sliding-window detector over one VM's reported latencies."""

    def __init__(self, sla: LatencySLA, window: int = 50) -> None:
        if window < 2:
            raise PricingError("window must hold at least 2 samples")
        self.sla = sla
        self.window = window
        self._samples: Deque[float] = deque(maxlen=window)
        #: Most recent computed increase (for probes/inspection).
        self.last_pct = 0.0

    def add_samples(self, latencies_us: Sequence[float]) -> None:
        self._samples.extend(float(v) for v in latencies_us)

    def interference_pct(self) -> float:
        """Percent latency degradation beyond the SLA, or 0.0.

        Both the mean and the jitter are checked (Algorithm 2 computes
        "the average and standard deviation ... the percentage increase
        in either"); the larger violation wins.  Increases are expressed
        relative to the base mean so a tiny base stddev cannot produce
        unbounded percentages.
        """
        if len(self._samples) < 2:
            self.last_pct = 0.0
            return 0.0
        arr = np.asarray(self._samples, dtype=np.float64)
        base = self.sla.base_mean_us
        mean_pct = 100.0 * (float(arr.mean()) - base) / base
        std_pct = 100.0 * (float(arr.std()) - self.sla.base_std_us) / base
        violations = []
        if mean_pct > self.sla.threshold_pct:
            violations.append(mean_pct)
        if std_pct > self.sla.jitter_threshold_pct:
            violations.append(std_pct)
        self.last_pct = max(violations) if violations else 0.0
        return self.last_pct

    def reset(self) -> None:
        self._samples.clear()
        self.last_pct = 0.0
