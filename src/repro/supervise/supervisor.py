"""The supervised sweep runtime: a ledger, retries and watchdogs.

:func:`supervised_sweep` runs the same scheduler loop as
:func:`repro.parallel.run_sweep` (:func:`repro.parallel.engine._schedule`
— serial equals pooled equals supervised, structurally) and adds three
things to it:

* **watchdogs** — a per-cell wall-clock budget and a *stall* detector:
  the worker installs a :class:`HeartbeatBus` (a telemetry bus whose
  only live method is ``kernel_tick``) for the cell, which writes the
  simulator's event counter to a per-cell heartbeat file; a cell whose
  counter does not advance for ``stall_s`` is wedged, not slow.  The
  loop wakes at each deadline, kills that cell's worker and replaces
  it, so no other cell is touched;
* **deterministic retries** — a failed/killed attempt is retried up to
  ``retries`` more times with seeded exponential backoff (the delay is
  a pure function of ``(backoff_seed, cell, attempt)``); a cell that
  exhausts its budget is **quarantined**, a terminal state that the
  sweep reports honestly instead of crashing on;
* **checkpoint/resume** — every state transition is appended to the
  run's :class:`~repro.supervise.manifest.RunManifest`; ``done``
  records carry the metrics themselves, so a killed sweep resumes by
  replaying the ledger, serving completed cells from it, and running
  only the remainder — producing a byte-identical deterministic report
  (see :meth:`SupervisedResult.deterministic_dict`).

Cells run under the ambient invariant-guard mode (see
:mod:`repro.sim.invariants`): in ``record`` mode a violating cell
completes but is marked *tainted* in the manifest and excluded from
the result cache; in ``strict`` mode the violation is a per-cell error
that retries/quarantines like any other.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.parallel.engine import (
    CellResult,
    SupervisePolicy,
    SweepJob,
    SweepReport,
    SweepResult,
    _schedule,
)
from repro.sim import invariants as _invariants
from repro.supervise.manifest import (
    DONE,
    QUARANTINED,
    RETRYING,
    RUNNING,
    ManifestState,
    RunManifest,
)


@dataclass
class SupervisedResult:
    """A supervised sweep's outcome: cells + report + ledger identity."""

    result: SweepResult
    run_id: str
    manifest_path: pathlib.Path
    #: Cells served from a resumed manifest (already-done last run).
    resumed: int = 0
    #: Cells terminally quarantined (error after exhausting retries).
    quarantined: int = 0
    #: Total failed attempts that were retried.
    retried_attempts: int = 0

    @property
    def cells(self) -> List[CellResult]:
        return self.result.cells

    @property
    def report(self) -> SweepReport:
        return self.result.report

    @property
    def complete(self) -> bool:
        return self.quarantined == 0 and self.report.errors == 0

    def integrity(self) -> Dict[str, Any]:
        """The honest summary attached to every supervised report."""
        violations: Dict[str, int] = {}
        for cell in self.cells:
            for v in cell.violations:
                guard = v.get("guard", "?")
                violations[guard] = violations.get(guard, 0) + 1
        return {
            "complete": self.complete,
            "cells": len(self.cells),
            "done": sum(1 for c in self.cells if c.ok),
            "quarantined": self.quarantined,
            "tainted": sum(1 for c in self.cells if c.tainted),
            "retried_attempts": self.retried_attempts,
            "invariant_violations": violations,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The run's outcome with all timing/identity noise removed.

        A resumed run and an uninterrupted run of the same cells must
        produce **byte-identical** JSON for this value — that is the
        correctness contract the kill-and-resume test enforces.
        """
        from repro.supervise.manifest import result_digest

        cells = []
        for cell in self.cells:
            cells.append(
                {
                    "label": cell.job.label,
                    "state": DONE if cell.ok else QUARANTINED,
                    "digest": (
                        result_digest(cell.metrics)
                        if cell.metrics is not None
                        else None
                    ),
                    "metrics": cell.metrics,
                    "tainted": cell.tainted,
                    "error_code": cell.error_code,
                }
            )
        return {"cells": cells, "integrity": self.integrity()}


def new_run_id() -> str:
    """A fresh, filesystem-safe run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + os.urandom(3).hex()


def supervised_sweep(
    jobs: Optional[Sequence[SweepJob]],
    *,
    run_dir,
    run_id: Optional[str] = None,
    policy: Optional[SupervisePolicy] = None,
    workers: int = 1,
    cache=None,
    telemetry=None,
    logger=None,
    invariant_mode: str = "off",
    resume: bool = False,
    retry_quarantined: bool = False,
) -> SupervisedResult:
    """Run (or resume) a sweep under supervision.

    ``run_dir`` is the campaign directory; the run's ledger lives at
    ``<run_dir>/<run_id>/manifest.jsonl``.  With ``resume=True`` the
    manifest must exist; ``jobs`` may then be omitted — cells are
    rebuilt from the ledger — or supplied, in which case they must
    match the recorded (kind, name, seed) sequence exactly.
    """
    if invariant_mode not in _invariants.MODES:
        raise ConfigError(
            f"unknown invariant mode {invariant_mode!r} "
            f"(expected one of {_invariants.MODES})"
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    policy = policy or SupervisePolicy()

    run_dir = pathlib.Path(run_dir)
    if resume and run_id is None:
        raise ConfigError("resume requires an explicit run id")
    run_id = run_id or new_run_id()
    run_path = run_dir / run_id
    manifest = RunManifest(run_path / "manifest.jsonl")

    prior: Optional[ManifestState] = None
    if resume:
        prior = manifest.replay()
        jobs = _resume_jobs(jobs, prior, manifest)
    else:
        jobs = list(jobs or ())
        if not jobs:
            raise ConfigError("no jobs to run")
        manifest.write_header(run_id, list(jobs), invariant_mode)
    jobs = [
        _with_cell_checkpoint(job, run_path, idx)
        for idx, job in enumerate(jobs)
    ]

    # Cells the ledger already settled are served from it.  Interrupted
    # attempts resume their numbering: a cell killed mid-attempt re-runs
    # that attempt; one whose failure was recorded moves on to the next.
    # Quarantined cells being retried start a fresh budget.
    settled: Dict[int, CellResult] = {}
    first_attempt: Dict[int, int] = {}
    for idx, job in enumerate(jobs):
        rec = prior.cells.get(idx) if prior is not None else None
        if rec is None:
            continue
        if rec.state == DONE and rec.metrics is not None:
            settled[idx] = CellResult(
                job=job,
                metrics=rec.metrics,
                cached=True,
                tainted=rec.tainted,
                violations=tuple(rec.violations),
                attempts=max(rec.attempts, 1),
            )
        elif rec.state == QUARANTINED and not retry_quarantined:
            settled[idx] = CellResult(
                job=job,
                error=rec.error or "quarantined in a previous run",
                error_code=rec.error_code or "error",
                attempts=max(rec.attempts, 1),
            )
        elif rec.state == RUNNING:
            first_attempt[idx] = max(rec.attempts, 1)
        elif rec.state == RETRYING:
            first_attempt[idx] = rec.attempts + 1

    result, retried = _schedule(
        jobs,
        workers=workers,
        policy=policy,
        invariant_mode=invariant_mode,
        cache=cache,
        telemetry=telemetry,
        logger=logger,
        ledger=manifest,
        settled=settled,
        first_attempt=first_attempt,
        heartbeat_dir=run_path / "heartbeats",
    )
    supervised = SupervisedResult(
        result=result,
        run_id=run_id,
        manifest_path=manifest.path,
        resumed=sum(1 for cell in settled.values() if cell.ok),
        quarantined=result.report.errors,
        retried_attempts=retried,
    )
    if logger is not None:
        logger.info(
            f"supervised sweep {run_id}: " + result.report.render()
            + (f"; {supervised.quarantined} quarantined"
               if supervised.quarantined else "")
        )
    return supervised


def _with_cell_checkpoint(
    job: SweepJob, run_path: pathlib.Path, idx: int
) -> SweepJob:
    """Arm barrier checkpointing on sharded cluster cells.

    A supervised sharded cell journals to
    ``<run>/checkpoints/cell-<idx>`` as it runs, so an attempt killed
    by a watchdog (or the whole sweep process dying) resumes its next
    attempt — including one launched by :func:`resume_sweep` — from the
    last barrier checkpoint instead of t=0.  The injected keys are
    execution-only (:data:`repro.parallel.cache.EXECUTION_ONLY_KEYS`):
    a restored cell replays to byte-identical metrics, so content
    addresses and the deterministic report are untouched.  Derived at
    runtime from the cell index, never recorded in the ledger, so a
    relocated ``run_dir`` resumes cleanly.
    """
    if job.kind != "cluster" or int(job.spec.get("shards", 1)) < 2:
        return job
    if job.spec.get("checkpoint_dir"):
        return job
    spec = dict(job.spec)
    spec["checkpoint_dir"] = str(run_path / "checkpoints" / f"cell-{idx}")
    spec["restore"] = True
    return SweepJob(job.kind, job.name, job.seed, spec)


def _resume_jobs(
    jobs: Optional[Sequence[SweepJob]],
    prior: ManifestState,
    manifest: RunManifest,
) -> List[SweepJob]:
    """The job list for a resumed run: rebuilt from the ledger, or the
    caller's list verified against it."""
    if jobs is not None:
        jobs = list(jobs)
        if len(jobs) != prior.n_jobs:
            raise ConfigError(
                f"resume job count mismatch: manifest has {prior.n_jobs} "
                f"cells, caller supplied {len(jobs)}"
            )
        for idx, job in enumerate(jobs):
            stored = prior.jobs[idx]
            if stored is not None and (
                stored.kind, stored.name, stored.seed
            ) != (job.kind, job.name, job.seed):
                raise ConfigError(
                    f"resume cell {idx} mismatch: manifest has "
                    f"{stored.label}, caller supplied {job.label}"
                )
        return jobs
    rebuilt: List[SweepJob] = []
    missing: List[int] = []
    for idx in range(prior.n_jobs):
        job = prior.jobs[idx]
        if job is None:
            rec = prior.cells.get(idx)
            if rec is not None and rec.state == DONE and rec.metrics is not None:
                # Settled: a placeholder label is enough to report it.
                job = SweepJob("unknown", f"cell-{idx}", 0, {})
            else:
                missing.append(idx)
                continue
        rebuilt.append(job)
    if missing:
        raise ConfigError(
            f"cells {missing} cannot be rebuilt from manifest "
            f"{manifest.path} (uncacheable specs); re-run with the "
            f"original job list to resume them"
        )
    return rebuilt


def resume_sweep(
    run_id: str,
    *,
    run_dir,
    jobs: Optional[Sequence[SweepJob]] = None,
    policy: Optional[SupervisePolicy] = None,
    workers: int = 1,
    cache=None,
    telemetry=None,
    logger=None,
    retry_quarantined: bool = False,
) -> SupervisedResult:
    """Resume an interrupted supervised sweep from its manifest.

    Completed cells are served from the ledger (their metrics were
    checkpointed in the ``done`` records); quarantined cells stay
    quarantined unless ``retry_quarantined``; everything else re-runs.
    The invariant mode is taken from the manifest header so a resumed
    run checks exactly what the original did.
    """
    manifest = RunManifest(pathlib.Path(run_dir) / run_id / "manifest.jsonl")
    prior = manifest.replay()
    return supervised_sweep(
        jobs,
        run_dir=run_dir,
        run_id=run_id,
        policy=policy,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        logger=logger,
        invariant_mode=prior.invariant_mode,
        resume=True,
        retry_quarantined=retry_quarantined,
    )
