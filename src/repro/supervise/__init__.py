"""Supervised, resumable experiment runtime.

Runs the :mod:`repro.parallel` sweep scheduler with per-cell
watchdogs (wall-clock timeout + sim-progress stall detection),
deterministic seeded-backoff retries with a terminal *quarantined*
state, and an append-only JSONL run manifest that makes any
interrupted sweep resumable to a byte-identical report.  See
:mod:`repro.supervise.supervisor` for the runtime and
:mod:`repro.supervise.manifest` for the ledger format.
"""

from repro.parallel.engine import ATTEMPT_ENV, HeartbeatBus, SupervisePolicy
from repro.supervise.manifest import (
    DONE,
    PENDING,
    QUARANTINED,
    RETRYING,
    RUNNING,
    RUN_SCHEMA,
    ManifestState,
    RunManifest,
    result_digest,
)
from repro.supervise.supervisor import (
    SupervisedResult,
    new_run_id,
    resume_sweep,
    supervised_sweep,
)

__all__ = [
    "ATTEMPT_ENV",
    "DONE",
    "HeartbeatBus",
    "ManifestState",
    "PENDING",
    "QUARANTINED",
    "RETRYING",
    "RUNNING",
    "RUN_SCHEMA",
    "RunManifest",
    "SupervisePolicy",
    "SupervisedResult",
    "new_run_id",
    "result_digest",
    "resume_sweep",
    "supervised_sweep",
]
