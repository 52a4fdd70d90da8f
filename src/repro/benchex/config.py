"""BenchEx configuration.

A BenchEx instance is parameterised the way the paper parameterises it
(§IV): message ("buffer") size, per-request processing amount, and
request pacing.  The paper refers to instances by buffer size — "the
64 KB VM", "the 2 MB VM" — and distinguishes the latency-sensitive
configuration (one outstanding transaction, FCFS) from the interference
generator (kept saturating via pipelining).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.units import US, KiB


@dataclass(frozen=True)
class BenchExConfig:
    """Parameters of one client/server BenchEx pair."""

    name: str = "benchex"
    #: Message size in both directions (the paper's "buffer size").
    buffer_bytes: int = 64 * KiB
    #: Options priced per request; sets CTime (~650 ns per option).
    n_options: int = 125
    #: Per-request uniform jitter on the batch size (fraction of
    #: n_options).  Real request processing varies; this also prevents
    #: the artificial phase-lock of two identical deterministic loops.
    ctime_jitter: float = 0.05
    #: Client window: outstanding requests.  1 = latency-sensitive FCFS
    #: trading loop; >1 = interference-generator style pipelining.
    pipeline_depth: int = 1
    #: Client pause between receiving a response and the next request.
    think_time_ns: int = 0
    #: Stop after this many completed requests (None = run forever).
    request_limit: Optional[int] = None
    #: Requests excluded from recorded statistics at the start.
    warmup_requests: int = 0
    #: Per-request cost of the in-VM latency reporting agent, when an
    #: agent is attached (the paper measures ~10 us).
    reporting_cost_ns: int = 10 * US
    #: Completion detection: "poll" busy-polls the CQ (the paper's
    #: latency-critical style); "event" sleeps on the completion channel
    #: and pays interrupt cost instead of CPU.
    completion_mode: str = "poll"

    def __post_init__(self) -> None:
        if self.buffer_bytes < 1 * KiB:
            raise ConfigError("buffer must be at least one MTU (1 KiB)")
        if self.n_options < 1:
            raise ConfigError("n_options must be >= 1")
        if not 0.0 <= self.ctime_jitter < 1.0:
            raise ConfigError("ctime_jitter must be in [0, 1)")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        if self.think_time_ns < 0:
            raise ConfigError("think_time_ns must be >= 0")
        if self.request_limit is not None and self.request_limit < 1:
            raise ConfigError("request_limit must be >= 1 or None")
        if self.warmup_requests < 0:
            raise ConfigError("warmup_requests must be >= 0")
        if self.completion_mode not in ("poll", "event"):
            raise ConfigError(
                f"completion_mode must be 'poll' or 'event', "
                f"got {self.completion_mode!r}"
            )

    def label(self) -> str:
        """Paper-style label, e.g. '64KB' or '2MB'."""
        from repro.units import format_bytes

        return format_bytes(self.buffer_bytes)


#: The paper's latency-sensitive reporting application.
REPORTING_64KB = BenchExConfig(name="reporting-64KB", buffer_bytes=64 * KiB)

#: The paper's canonical interference generator.
INTERFERER_2MB = BenchExConfig(
    name="interferer-2MB",
    buffer_bytes=2048 * KiB,
    pipeline_depth=2,
)
