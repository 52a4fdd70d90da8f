"""Append-only JSONL run manifest: the sweep's durable ledger.

A supervised sweep writes one manifest file next to the result cache.
Every line is one sealed record: the record under the ``repro-run/2``
schema tag and the digest of its own canonical encoding, appended by
:func:`repro.durable.append_record` as a single write plus ``fsync``.
A ``SIGKILL`` mid-sweep can at worst leave one torn,
unterminated trailing line, which replay drops; any other line that
fails to verify raises :class:`~repro.errors.CacheCorruption` naming
its line.

Record types (the ``type`` field):

``run``
    Header: run id, package version, invariant mode, and the number
    of cells.  Always the first record.
``job``
    One per cell, in submission order: kind / name / seed plus the
    :func:`~repro.parallel.cache.canonical` encoding of the spec (or
    ``null`` when the spec is uncacheable — such a cell cannot be
    rebuilt from the manifest alone and resuming requires the caller
    to re-supply the job list).
``state``
    One per cell state transition::

        pending -> running -> done
                           -> retrying -> running -> ...
                           -> quarantined

    ``done`` records carry the metrics dict itself and its digest —
    resume never depends on the result cache being intact — plus the
    ``tainted`` flag and recorded invariant violations.  ``retrying``
    and ``quarantined`` carry the error summary and stable error code.

Replay folds the line sequence into a :class:`ManifestState`: the last
state per cell wins; ``running``/``retrying`` cells (interrupted by
the crash being resumed from) count as pending again.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.durable import append_record, canonical_digest, read_records
from repro.errors import CacheCorruption, ConfigError, Uncacheable
from repro.parallel.cache import canonical, uncanonical
from repro.parallel.engine import SweepJob

#: Manifest schema identifier; bump when the record shape changes.
RUN_SCHEMA = "repro-run/2"

#: Cell states, in state-machine order.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
RETRYING = "retrying"
QUARANTINED = "quarantined"

#: States a resumed sweep does not re-run (``quarantined`` only skips
#: when ``--retry-quarantined`` is absent).
TERMINAL = (DONE, QUARANTINED)

__all__ = [
    "DONE",
    "ManifestState",
    "PENDING",
    "QUARANTINED",
    "RETRYING",
    "RUNNING",
    "RUN_SCHEMA",
    "RunManifest",
    "TERMINAL",
    "result_digest",
]


def result_digest(metrics: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a cell's metrics.

    The digest is the identity of a result: a retried or resumed cell
    proves it reproduced the uninterrupted outcome by matching it.
    """
    return canonical_digest(metrics)


@dataclass
class CellRecord:
    """Folded view of one cell after replay."""

    index: int
    state: str = PENDING
    attempts: int = 0
    digest: Optional[str] = None
    metrics: Optional[Dict[str, float]] = None
    tainted: bool = False
    violations: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None
    error_code: Optional[str] = None


@dataclass
class ManifestState:
    """Everything replay recovers from a manifest file."""

    run_id: str
    version: str
    invariant_mode: str
    n_jobs: int
    #: Rebuilt jobs, submission order; ``None`` where the stored spec
    #: was null (uncacheable) or no longer decodable.
    jobs: List[Optional[SweepJob]] = field(default_factory=list)
    cells: Dict[int, CellRecord] = field(default_factory=dict)
    #: Torn trailing lines dropped during replay (0 or 1).
    skipped_lines: int = 0

    def cell(self, index: int) -> CellRecord:
        if index not in self.cells:
            self.cells[index] = CellRecord(index=index)
        return self.cells[index]

    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, RUNNING: 0, DONE: 0, RETRYING: 0, QUARANTINED: 0}
        for i in range(self.n_jobs):
            rec = self.cells.get(i)
            out[rec.state if rec is not None else PENDING] += 1
        return out


class RunManifest:
    """Writer/replayer for one run's JSONL manifest."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)

    # -- writing -------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        append_record(self.path, RUN_SCHEMA, record)

    def write_header(
        self, run_id: str, jobs: List[SweepJob], invariant_mode: str
    ) -> None:
        """Start a fresh manifest: the run record plus one job record
        per cell, in submission order."""
        if self.path.exists():
            raise ConfigError(
                f"manifest {self.path} already exists; resume it instead "
                f"of starting a new run with the same id"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._append(
            {
                "type": "run",
                "run_id": run_id,
                "version": __version__,
                "invariant_mode": invariant_mode,
                "jobs": len(jobs),
            }
        )
        for index, job in enumerate(jobs):
            try:
                spec = canonical(dict(job.spec))
            except Uncacheable:
                spec = None
            self._append(
                {
                    "type": "job",
                    "index": index,
                    "kind": job.kind,
                    "name": job.name,
                    "seed": job.seed,
                    "spec": spec,
                }
            )

    def record_running(self, index: int, attempt: int, pid: int = 0) -> None:
        self._append(
            {
                "type": "state",
                "index": index,
                "attempt": attempt,
                "state": RUNNING,
                "pid": pid,
            }
        )

    def record_done(
        self,
        index: int,
        attempt: int,
        metrics: Optional[Dict[str, float]],
        *,
        tainted: bool = False,
        violations: Optional[List[Dict[str, Any]]] = None,
    ) -> Optional[str]:
        """Terminal success; returns the result digest (None for
        payload cells, whose results cannot be stored in the ledger)."""
        digest = result_digest(metrics) if metrics is not None else None
        record: Dict[str, Any] = {
            "type": "state",
            "index": index,
            "attempt": attempt,
            "state": DONE,
            "digest": digest,
            "metrics": metrics,
            "tainted": tainted,
        }
        if violations:
            record["violations"] = violations
        self._append(record)
        return digest

    def record_failure(
        self,
        index: int,
        attempt: int,
        error: str,
        *,
        error_code: str = "error",
        final: bool,
    ) -> None:
        """A failed attempt: ``retrying`` when budget remains,
        ``quarantined`` (terminal) otherwise."""
        self._append(
            {
                "type": "state",
                "index": index,
                "attempt": attempt,
                "state": QUARANTINED if final else RETRYING,
                "error": error.splitlines()[0] if error else "unknown",
                "error_code": error_code,
            }
        )

    # -- replay --------------------------------------------------------------
    def replay(self) -> ManifestState:
        """Fold the manifest into a :class:`ManifestState`.

        Tolerant of exactly the damage SIGKILL can cause: a torn final
        line is dropped.  Any other damage (the file is append-only;
        nothing rewrites it) or another schema raises
        :class:`CacheCorruption`.
        """
        read = read_records(self.path, RUN_SCHEMA, CacheCorruption)
        if read is None:
            raise ConfigError(f"cannot read run manifest {self.path}: no such file")
        records, torn = read
        if not records:
            raise CacheCorruption(f"manifest {self.path} is empty")
        header = records[0]
        state = ManifestState(
            run_id=header["run_id"],
            version=header["version"],
            invariant_mode=header["invariant_mode"],
            n_jobs=header["jobs"],
            jobs=[None] * header["jobs"],
            skipped_lines=torn,
        )
        for record in records[1:]:
            rtype = record["type"]
            if rtype == "job":
                if record["spec"] is None:
                    continue  # uncacheable spec: cell is not resumable
                try:
                    spec = uncanonical(record["spec"])
                except CacheCorruption:
                    continue  # stored type no longer importable
                state.jobs[record["index"]] = SweepJob(
                    kind=record["kind"],
                    name=record["name"],
                    seed=record["seed"],
                    spec=spec,
                )
            elif rtype == "state":
                cell = state.cell(record["index"])
                cell.state = record["state"]
                cell.attempts = max(cell.attempts, record["attempt"])
                if cell.state == DONE:
                    cell.digest = record["digest"]
                    cell.metrics = record["metrics"]
                    cell.tainted = record["tainted"]
                    cell.violations = list(record.get("violations", ()))
                    cell.error = None
                    cell.error_code = None
                elif cell.state in (RETRYING, QUARANTINED):
                    cell.error = record["error"]
                    cell.error_code = record["error_code"]
            # Unknown record types are skipped: newer writers may add
            # them and an old reader should still replay what it knows.
        return state

    def __repr__(self) -> str:
        return f"<RunManifest {str(self.path)!r}>"
