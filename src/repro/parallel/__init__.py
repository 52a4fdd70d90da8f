"""The sweep scheduler: worker-process fan-out + result caching.

``repro.parallel`` turns the batch layers of the harness —
replications, comparisons, chaos campaigns, ablation/figure suites —
from serial for-loops into deterministic sweeps over long-lived
worker processes, with a content-addressed on-disk result cache.  The
contract: **parallel equals serial, bit for bit** — results merge in
submission order and every cell is a self-contained seeded
simulation, so the worker count (and the cache) can only change
wall-clock time, never a float.  The same scheduler loop runs the
supervised sweeps of :mod:`repro.supervise`.

See ``docs/architecture.md`` §12 for the determinism contract and
cache-key design, and ``python -m repro sweep --help`` for the CLI.
"""

from repro.parallel.cache import (
    CELL_SCHEMA,
    ResultCache,
    Uncacheable,
    canonical,
    cell_key,
)
from repro.parallel.engine import (
    JOB_KINDS,
    CellResult,
    SweepJob,
    SweepReport,
    SweepResult,
    register_job_kind,
    run_sweep,
)

__all__ = [
    "CELL_SCHEMA",
    "CellResult",
    "JOB_KINDS",
    "ResultCache",
    "SweepJob",
    "SweepReport",
    "SweepResult",
    "Uncacheable",
    "canonical",
    "cell_key",
    "register_job_kind",
    "run_sweep",
]
