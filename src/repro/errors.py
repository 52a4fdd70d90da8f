"""Exception hierarchy for the repro package.

Every layer raises a subclass of :class:`ReproError` so callers can
catch simulation-level failures without masking programming errors.

Each class carries a stable machine-readable :attr:`ReproError.code`
(used in manifests, telemetry records and ``--json`` error summaries)
and an :attr:`ReproError.exit_code` the CLI maps process exit statuses
from, so scripts can distinguish "a sweep cell failed" from "bad
arguments" without parsing stderr.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: Stable machine-readable identifier for this error family.
    code: str = "error"
    #: Process exit status the CLI maps this error to.
    exit_code: int = 1


class SimulationError(ReproError):
    """Errors raised by the discrete-event kernel."""

    code = "simulation"


class StopSimulation(Exception):
    """Internal signal used by Environment.run(until=event)."""

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class CheckpointError(SimulationError):
    """A barrier checkpoint file is corrupt, truncated or mismatched.

    Raised by :mod:`repro.sim.checkpoint` when a ``ckpt/1`` file fails
    its magic, length or digest validation, or when a restore is
    attempted against a checkpoint recorded for a different world
    (mismatched ``world_key`` or shard geometry).  The loader treats a
    damaged *newest* file as recoverable — it falls back to the
    next-older checkpoint — so this escapes only when no usable
    checkpoint remains or when the mismatch is semantic.
    """

    code = "checkpoint"
    exit_code = 5


class ShardSyncError(SimulationError):
    """Conservative time-synchronization contract violation.

    Raised when a cross-shard message is submitted with less than the
    shard lookahead of latency, or would be delivered behind a barrier
    that has already been crossed — either one means the partitioned
    run could diverge from the serial reference, so the run aborts
    instead of silently producing non-reproducible results.
    """

    code = "shard-sync"


class ConfigError(ReproError):
    """Invalid configuration value."""

    code = "config"
    exit_code = 2


class FabricError(ReproError):
    """Errors from the InfiniBand / link models."""

    code = "fabric"


class ProtectionFault(FabricError):
    """A work request referenced memory with a bad or mismatched key."""

    code = "fabric-protection"


class QPError(FabricError):
    """Queue-pair state machine violation (e.g. posting to a RESET QP)."""

    code = "fabric-qp"


class CQOverflowError(FabricError):
    """Completion queue ring overflow (CQEs produced faster than consumed)."""

    code = "fabric-cq-overflow"


class HypervisorError(ReproError):
    """Errors from the Xen-like hypervisor substrate."""

    code = "hypervisor"


class SchedulerError(HypervisorError):
    """Credit-scheduler invariant violation or invalid cap/weight."""

    code = "scheduler"


class IntrospectionError(HypervisorError):
    """Foreign page mapping failure (bad domain, unmapped page, ...)."""

    code = "introspection"


class ResExError(ReproError):
    """Errors from the ResEx controller / pricing policies."""

    code = "resex"


class PricingError(ResExError):
    """Invalid pricing-policy configuration or rate computation."""

    code = "pricing"


class BenchmarkError(ReproError):
    """Errors from BenchEx workload components."""

    code = "benchmark"


class FaultError(ReproError):
    """Invalid fault specification or campaign (repro.faults)."""

    code = "fault"


class FinanceError(ReproError):
    """Invalid pricing input, request or batch size (repro.finance)."""

    code = "finance"


class SweepError(ReproError):
    """One or more cells of a parallel experiment sweep failed.

    Raised by the sweep helpers that promise complete results
    (``sweep_*``, ``run_registry_set``); carries the per-cell error
    summaries so a single crashed worker is attributable to its exact
    (scenario, seed) cell instead of surfacing as a broken pool.
    """

    code = "sweep-failed"
    exit_code = 3

    def __init__(self, message: str, cell_errors=()):
        super().__init__(message)
        #: ``(job_label, error_text)`` pairs, submission order.
        self.cell_errors = tuple(cell_errors)


class CellTimeout(SweepError):
    """A supervised sweep cell exceeded its watchdog budget.

    Covers both failure shapes the supervisor distinguishes: a
    wall-clock timeout (the cell ran too long in real time) and a
    stall (the worker's heartbeat showed no sim-event progress across
    the stall window).  :attr:`kind` says which.
    """

    code = "cell-timeout"
    exit_code = 3

    def __init__(self, message: str, kind: str = "timeout"):
        super().__init__(message)
        #: ``"timeout"`` or ``"stall"``.
        self.kind = kind


class InvariantViolation(ReproError):
    """A runtime model invariant was violated (strict mode).

    Structured: carries the registered guard name, the layer category,
    the simulation time of the violation and a details mapping — the
    same fields a ``record``-mode monitor logs without raising (see
    :mod:`repro.sim.invariants`).
    """

    code = "invariant"
    exit_code = 4

    def __init__(
        self,
        guard: str,
        message: str,
        *,
        category: str = "",
        ts_ns: int = -1,
        details=None,
    ):
        super().__init__(f"{guard}: {message}")
        self.guard = guard
        self.category = category
        self.ts_ns = ts_ns
        self.details = dict(details or {})


class CacheCorruption(ReproError):
    """A content-addressed cache entry is unreadable or mis-shaped.

    The cache layer handles this internally (corrupt entries are
    deleted and treated as misses), so it escapes only from strict
    verification paths.
    """

    code = "cache-corrupt"
    exit_code = 5


class Uncacheable(ReproError):
    """A job spec contains values with no canonical encoding.

    Historically defined in :mod:`repro.parallel.cache` (still
    re-exported there); the engine treats it as "run this cell
    uncached", never as a failure.
    """

    code = "uncacheable"


class ServiceError(ReproError):
    """Errors from the live serving layer (:mod:`repro.service`).

    The subtree's :attr:`code` values double as wire error codes: the
    gateway folds a raised :class:`ServiceError` into an ``err`` frame
    carrying ``exc.code``, and the client library re-raises the matching
    class on its side, so one stable vocabulary covers the process exit
    status (6), the JSON error summaries and the protocol itself.
    """

    code = "service"
    exit_code = 6


class ServiceUnavailable(ServiceError):
    """No server is listening (connect retry budget exhausted).

    Raised client-side by :meth:`repro.service.client.ServiceClient.connect`
    (and therefore ``repro loadgen``) once every connection attempt has
    been refused, so an absent server surfaces as a structured
    ``repro: error [service-unavailable]`` with the service exit status
    instead of a raw ``ConnectionRefusedError`` traceback.
    """

    code = "service-unavailable"


class ProtocolError(ServiceError):
    """A malformed, truncated or out-of-contract wire frame.

    Connection-fatal: once framing is broken the byte stream cannot be
    trusted, so the gateway sends one final ``err`` frame (when it still
    can) and closes the connection.
    """

    code = "service-protocol"


class HandshakeError(ServiceError):
    """The client hello was missing, malformed or version-incompatible."""

    code = "service-handshake"


class FrameTooLarge(ProtocolError):
    """A frame header announced a payload over the configured limit."""

    code = "service-frame"


class Overloaded(ServiceError):
    """The gateway's bounded request queue for this client is full.

    Backpressure is explicit: the request is rejected immediately with
    this code instead of being buffered without bound; the connection
    stays open and the client may retry.
    """

    code = "service-overloaded"


class SessionError(ServiceError):
    """A request arrived outside a valid session (no handshake, or the
    session was torn down)."""

    code = "service-session"


class AdmissionError(ServiceError):
    """VM admission failed: capacity exhausted, duplicate name, or an
    operation referenced a VM that was never admitted."""

    code = "service-admission"


class ServiceBackendError(ServiceError):
    """The backend failed while executing an accepted request.

    Wraps unexpected backend exceptions so they surface as a structured
    error frame on the wire instead of tearing down the gateway.
    """

    code = "service-backend"


#: Wire error code -> exception class, for the client library to
#: re-raise what the gateway folded into an ``err`` frame.
SERVICE_ERROR_CODES = {
    cls.code: cls
    for cls in (
        ServiceError,
        ServiceUnavailable,
        ProtocolError,
        HandshakeError,
        FrameTooLarge,
        Overloaded,
        SessionError,
        AdmissionError,
        ServiceBackendError,
    )
}


def service_error_from_code(code: str, message: str) -> ServiceError:
    """Rebuild the :class:`ServiceError` subclass a wire code names."""
    cls = SERVICE_ERROR_CODES.get(code, ServiceError)
    return cls(message)


__all__ = [
    "ReproError",
    "SimulationError",
    "ConfigError",
    "FabricError",
    "ProtectionFault",
    "QPError",
    "CQOverflowError",
    "HypervisorError",
    "SchedulerError",
    "IntrospectionError",
    "ResExError",
    "PricingError",
    "BenchmarkError",
    "FaultError",
    "FinanceError",
    "SweepError",
    "CellTimeout",
    "InvariantViolation",
    "CacheCorruption",
    "CheckpointError",
    "Uncacheable",
    "ServiceError",
    "ServiceUnavailable",
    "ProtocolError",
    "HandshakeError",
    "FrameTooLarge",
    "Overloaded",
    "SessionError",
    "AdmissionError",
    "ServiceBackendError",
    "SERVICE_ERROR_CODES",
    "service_error_from_code",
]
