"""In-VM monitoring agent: the latency feedback channel to ResEx.

BenchEx exposes observed latencies to an agent running inside each VM;
the agent forwards them to the ResEx module in dom0 (paper §IV).  The
channel is modelled as a shared-memory ring the controller drains once
per interval; the VM pays ~10 us of CPU per report (paper §VII-B).
"""

from __future__ import annotations

from typing import List

import numpy as np


class LatencyAgent:
    """Per-VM agent accumulating recent latency observations (us)."""

    def __init__(self, domid: int, capacity: int = 65536) -> None:
        self.domid = domid
        self.capacity = capacity
        self._buffer: List[float] = []
        #: Total observations ever reported (monotonic).
        self.total_reported = 0
        #: Drops due to a full ring (controller draining too slowly).
        self.dropped = 0

    def report(self, latency_us: float) -> None:
        """Called from inside the VM after each completed request."""
        if len(self._buffer) >= self.capacity:
            self.dropped += 1
            return
        self._buffer.append(float(latency_us))
        self.total_reported += 1

    def drain(self) -> np.ndarray:
        """Controller side: take everything reported since last drain."""
        out = np.asarray(self._buffer, dtype=np.float64)
        self._buffer = []
        return out

    def __repr__(self) -> str:
        return (
            f"<LatencyAgent dom{self.domid} pending={len(self._buffer)} "
            f"total={self.total_reported}>"
        )
