"""The sweep scheduler: deterministic cell fan-out (``repro sweep``).

Everything above a single scenario run — replications, comparisons,
chaos campaigns, ablation suites, figure sets — is a batch of
*independent* seeded simulations.  One scheduler loop runs those cells
for :func:`run_sweep` and for the supervised runtime
(:mod:`repro.supervise`) and merges results **in submission order**, so
serial, pooled and supervised execution produce byte-identical
aggregates:

* a cell is a picklable :class:`SweepJob` — kind + name + seed + plain
  kwargs; the worker rebuilds the scenario from kwargs, so no
  ``Environment``/process/generator objects ever cross the pipe;
* each cell runs in a fresh deterministic simulation seeded only by
  its job spec, so *where* it runs (parent, worker, yesterday's
  worker via the cache) cannot change its floats;
* results are merged by submission index, never completion order;
* the loop forks up to ``workers`` long-lived workers that run cells
  one after another over a pipe.  A worker is replaced only when the
  cell it holds dies or a watchdog kills it, so a crash costs that one
  cell (a ``worker process died`` error) and no other;
* the loop blocks in :func:`multiprocessing.connection.wait` on the
  worker pipes and sentinels, with the nearest watchdog or backoff
  deadline as its timeout.

:func:`run_sweep` is that loop with no ledger, no retries and no
watchdog.  :func:`repro.supervise.supervised_sweep` adds the run
manifest and the retries and watchdogs of a :class:`SupervisePolicy`.
One worker with no watchdog runs its cells in this process, through
the same entrypoint.

The optional content-addressed :class:`~repro.parallel.cache.ResultCache`
short-circuits cells whose (version, kind, name, kwargs, seed) address
already has a stored result — a warm re-run of a sweep costs file
reads only.

Per-worker execution summaries (cells run, process/wall time) are
folded into one :class:`SweepReport`, and — when a telemetry bus is
passed — the sweep emits ``sweep``-category records so campaign-level
orchestration is visible on the same bus as everything else.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.durable import die_with_parent
from repro.errors import ConfigError, ReproError
from repro.parallel.cache import ResultCache
from repro.sim import invariants as _invariants
from repro.telemetry import bus as _bus
from repro.telemetry.bus import SWEEP

#: Registered cell kinds: kind -> runner(job) returning either a
#: ``dict`` of float metrics (cacheable) or an arbitrary picklable
#: payload (fanned out but never cached).
JOB_KINDS: Dict[str, Callable[["SweepJob"], Any]] = {}


def register_job_kind(kind: str, runner: Callable[["SweepJob"], Any]) -> None:
    """Register (or replace) the runner for a cell kind."""
    JOB_KINDS[kind] = runner


@dataclass(frozen=True)
class SweepJob:
    """One picklable sweep cell: what to run, not how it was built."""

    kind: str
    name: str
    seed: int
    spec: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}@s{self.seed}"


@dataclass
class CellResult:
    """Outcome of one cell, in submission order."""

    job: SweepJob
    #: Float metrics (scenario/chaos cells); ``None`` for payload cells
    #: and failed cells.
    metrics: Optional[Dict[str, float]] = None
    #: Arbitrary result object for registry-style cells.
    payload: Any = None
    cached: bool = False
    error: Optional[str] = None
    #: Stable machine-readable error code (``ReproError.code``) when the
    #: failure was a structured repro error; ``"error"`` otherwise.
    error_code: Optional[str] = None
    #: True when the cell completed but a runtime invariant guard fired
    #: in ``record`` mode — the numbers exist but are suspect, and the
    #: cell is excluded from the result cache.
    tainted: bool = False
    #: Recorded invariant violations (plain dicts, see
    #: :meth:`repro.sim.invariants.Violation.to_dict`).
    violations: Tuple[Dict[str, Any], ...] = ()
    #: Attempts it took to conclude this cell (supervised runs retry;
    #: the plain engine always concludes on attempt 1).
    attempts: int = 1
    pid: int = 0
    wall_s: float = 0.0
    process_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """Folded per-worker execution summary of one sweep."""

    jobs: int = 0
    executed: int = 0
    cached: int = 0
    errors: int = 0
    #: Cells that completed but tripped a runtime invariant guard.
    tainted: int = 0
    workers: int = 1
    wall_s: float = 0.0
    #: Sum of per-cell process time measured *inside* the executing
    #: process — under multiprocessing this is the number wall clock
    #: cannot give you (children's CPU never shows in the parent's
    #: ``time.process_time``).
    cpu_s: float = 0.0
    worker_cells: Dict[int, int] = field(default_factory=dict)
    worker_cpu_s: Dict[int, float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Mean fraction of the pool kept busy (cpu_s / wall_s*workers)."""
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return self.cpu_s / (self.wall_s * self.workers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "executed": self.executed,
            "cached": self.cached,
            "errors": self.errors,
            "tainted": self.tainted,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "utilization": self.utilization,
            "worker_cells": {str(k): v for k, v in sorted(self.worker_cells.items())},
            "worker_cpu_s": {
                str(k): v for k, v in sorted(self.worker_cpu_s.items())
            },
        }

    def render(self) -> str:
        taint = f", {self.tainted} tainted" if self.tainted else ""
        return (
            f"sweep: {self.jobs} cells ({self.cached} cached, "
            f"{self.executed} executed, {self.errors} errors{taint}) on "
            f"{self.workers} worker(s) in {self.wall_s:.2f}s wall / "
            f"{self.cpu_s:.2f}s cpu ({self.utilization * 100:.0f}% pool "
            f"utilization)"
        )


@dataclass
class SweepResult:
    """All cell results (submission order) plus the folded report."""

    cells: List[CellResult]
    report: SweepReport

    def values(self, metric: str) -> Tuple[float, ...]:
        """The given metric across cells, submission order.

        Raises :class:`ConfigError` if any cell failed or lacks it.
        """
        out = []
        for cell in self.cells:
            if cell.metrics is None or metric not in cell.metrics:
                raise ConfigError(
                    f"cell {cell.job.label} has no metric {metric!r} "
                    f"(error: {cell.error or 'none'})"
                )
            out.append(cell.metrics[metric])
        return tuple(out)

    def failed(self) -> List[CellResult]:
        return [c for c in self.cells if not c.ok]


# -- worker entrypoint -------------------------------------------------------

def _execute_job(job: SweepJob) -> Dict[str, Any]:
    """Run one cell; returns a picklable result envelope.

    This is the single execution path for serial, pooled and
    supervised runs — the scheduler calls it in-process or in a
    forked worker — which is what makes "parallel equals serial" a
    structural property rather than a testing aspiration.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    envelope: Dict[str, Any] = {"pid": os.getpid()}
    # Per-cell invariant scoping: each cell gets its own fresh monitor
    # at the ambient mode, so violations recorded by one cell never
    # bleed into its neighbours — in serial runs (shared process) and
    # forked pools (inherited parent monitor) alike.  The envelope
    # carries the violations back as plain dicts.
    ambient = _invariants.current()
    mon = _invariants.monitor_for_mode(ambient.mode)
    _invariants.install(mon)
    try:
        runner = JOB_KINDS.get(job.kind)
        if runner is None:
            raise ConfigError(
                f"unknown sweep job kind {job.kind!r} (have {sorted(JOB_KINDS)})"
            )
        out = runner(job)
        if isinstance(out, Mapping):
            envelope["metrics"] = dict(out)
        else:
            envelope["payload"] = out
    except KeyboardInterrupt:
        raise  # an interrupt stops the sweep; it is not this cell's failure
    except BaseException as exc:  # captured per-cell, reported upstream
        envelope["error"] = (
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )
        if isinstance(exc, ReproError):
            envelope["error_code"] = exc.code
    finally:
        _invariants.install(ambient)
    if mon.tainted:
        envelope["tainted"] = True
        envelope["violations"] = mon.to_dicts()
    envelope["process_s"] = time.process_time() - cpu0
    envelope["wall_s"] = time.perf_counter() - wall0
    return envelope


# -- built-in cell kinds -----------------------------------------------------

def _run_scenario_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one scenario replication cell from kwargs."""
    from repro.experiments.scenarios import run_scenario

    result = run_scenario(
        f"{job.name}-s{job.seed}", seed=job.seed, **job.spec
    )
    b = result.breakdown
    return {
        "total_mean": b.total_mean,
        "total_std": b.total_std,
        "requests": float(b.n),
    }


def _run_chaos_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one chaos replication cell from kwargs."""
    from repro.experiments.scenarios import run_chaos_scenario

    chaos = run_chaos_scenario(job.name, seed=job.seed, **job.spec)
    report = chaos.report
    worst = report.worst_ttr_ms
    return {
        "excursion_us_s": report.total_excursion_us_s,
        "worst_ttr_ms": float("inf") if worst is None else worst,
        "recovered": 1.0 if report.recovered_all else 0.0,
    }


def _run_registry_cell(job: SweepJob) -> Any:
    """Run one experiment-registry cell (figure or ablation)."""
    from repro.experiments.suite import _registry

    registry_name = job.spec.get("registry")
    try:
        fn = _registry(registry_name)[job.name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {job.name!r} in registry {registry_name!r}"
        ) from None
    scale = job.spec.get("scale")
    if scale:
        os.environ["REPRO_SCALE"] = scale
    return fn(seed=job.seed)


def _run_cluster_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one cluster-scale cell from kwargs.

    ``job.name`` is a :data:`~repro.experiments.cluster.CLUSTER_SPECS`
    preset; ``spec`` may override ``sim_s`` and ``shards``.  The result
    is a plain float dict, so cluster cells are content-addressed
    cacheable like scenario cells.  ``shards`` changes only how a cell
    executes, never its metrics (sharding is bit-identical), so a warm
    cache entry written by a serial run stays valid for a sharded one
    and vice versa — which is also why ``shards`` is excluded from the
    cell's content address (see
    :data:`repro.parallel.cache.EXECUTION_ONLY_KEYS`).

    ``checkpoint_dir``/``checkpoint_every``/``restore`` thread the
    barrier-aligned checkpointing of :mod:`repro.sim.checkpoint`
    through to the sharded runtime — also execution-only (a restored
    cell replays to the same bytes), so the supervisor can inject them
    without disturbing content addresses.
    """
    from repro.experiments.cluster import run_cluster

    checkpoint_dir = job.spec.get("checkpoint_dir")
    return run_cluster(
        job.name,
        seed=job.seed,
        sim_s=job.spec.get("sim_s"),
        shards=int(job.spec.get("shards", 1)),
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        checkpoint_every=job.spec.get("checkpoint_every"),
        restore=bool(job.spec.get("restore", False)),
    ).metrics()


def _run_service_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one deterministic service replay cell.

    ``job.name`` is a :data:`~repro.service.replay.SERVICE_SPECS`
    preset; ``spec`` entries override the preset (e.g. a smaller
    ``requests`` for smoke runs).  The metrics include ``digest48``
    (the first 48 bits of the response-log digest as a float), so a
    cache hit is also a determinism check: a warm cell that replays to
    a different digest would surface as a metric mismatch.
    """
    from repro.service.replay import run_service_replay

    return run_service_replay(
        job.name, seed=job.seed, overrides=dict(job.spec) or None
    ).metrics()


register_job_kind("scenario", _run_scenario_cell)
register_job_kind("chaos", _run_chaos_cell)
register_job_kind("registry", _run_registry_cell)
register_job_kind("cluster", _run_cluster_cell)
register_job_kind("service", _run_service_cell)


# -- the scheduler -----------------------------------------------------------

#: Environment variable exposing the attempt number (1-based) to the
#: cell runner.  Production cells must ignore it (results must not
#: depend on which attempt produced them); test job kinds read it to
#: inject attempt-correlated failures.
ATTEMPT_ENV = "REPRO_SWEEP_ATTEMPT"


@dataclass(frozen=True)
class SupervisePolicy:
    """Knobs of the supervision layer.

    ``timeout_s``/``stall_s`` of 0 disable that watchdog; with both
    disabled and one worker, cells run in-process.  ``retries`` is the
    number of *re*-tries: a cell gets ``retries + 1`` attempts before
    quarantine.
    """

    timeout_s: float = 0.0
    stall_s: float = 0.0
    retries: int = 1
    #: First-retry backoff; doubles per attempt, jittered in
    #: [0.5x, 1.5x] by a PRNG seeded from (backoff_seed, cell, attempt).
    backoff_base_s: float = 0.1
    backoff_seed: int = 0
    #: Sim events between heartbeat-file writes in the worker.
    heartbeat_every: int = 4096

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s < 0 or self.stall_s < 0:
            raise ConfigError("timeout_s and stall_s must be >= 0")
        if self.heartbeat_every < 1:
            raise ConfigError("heartbeat_every must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @property
    def watchdog(self) -> bool:
        """Whether any feature requiring worker processes is on."""
        return self.timeout_s > 0 or self.stall_s > 0

    def backoff_s(self, job: SweepJob, attempt: int) -> float:
        """Deterministic jittered exponential backoff before retrying
        ``job`` after its ``attempt``-th failure."""
        rng = random.Random(
            f"{self.backoff_seed}:{job.kind}:{job.name}:{job.seed}:{attempt}"
        )
        return self.backoff_base_s * (2.0 ** (attempt - 1)) * (0.5 + rng.random())


#: What :func:`run_sweep` runs under: one attempt, no watchdog.
_UNSUPERVISED = SupervisePolicy(retries=0)


class HeartbeatBus:
    """A telemetry-bus-shaped progress reporter for watched workers.

    Installed process-globally in the worker for the length of one
    cell, so the cell's ``Environment`` picks it up like any other bus.
    Every emit is a no-op except :meth:`kernel_tick`, which writes the
    kernel's event counter to the heartbeat file every ``every`` events
    — the scheduler reads the file and treats a counter that stops
    advancing as a wedged simulation.
    """

    __slots__ = ("path", "every")

    enabled = True
    kernel_dispatch = False
    kernel_sample_every = 0

    def __init__(self, path, every: int) -> None:
        self.path = str(path)
        self.every = int(every)

    def kernel_tick(
        self, ts_ns: int, events_processed: int, queue_depth: int, event: object
    ) -> None:
        if events_processed % self.every == 0:
            try:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(f"{events_processed}\n")
            except OSError:  # heartbeat loss must never kill the cell
                pass

    def kernel_resume(self, *args: Any, **kwargs: Any) -> None:
        pass

    def span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    event = instant

    def counter(self, *args: Any, **kwargs: Any) -> None:
        pass

    def __repr__(self) -> str:
        return f"<HeartbeatBus {self.path!r} every={self.every}>"


def _read_heartbeat(path: str) -> Optional[int]:
    """The worker's last-reported event count, or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _run_cell(
    job: SweepJob,
    attempt: int,
    hb_path: Optional[str],
    invariant_mode: str,
    heartbeat_every: int,
) -> Dict[str, Any]:
    """One attempt at ``job`` with its attempt number, heartbeat bus and
    invariant mode in force; all three are restored afterwards."""
    previous_attempt = os.environ.get(ATTEMPT_ENV)
    previous_bus = _bus.current()
    os.environ[ATTEMPT_ENV] = str(attempt)
    if hb_path is not None:
        _bus.install(HeartbeatBus(hb_path, heartbeat_every))
    try:
        with _invariants.activate(invariant_mode):
            # Looked up at call time, so a wrapped entry point (a
            # profiler) runs in the worker.
            return _execute_job(job)
    finally:
        _bus.install(previous_bus)
        if previous_attempt is None:
            os.environ.pop(ATTEMPT_ENV, None)
        else:
            os.environ[ATTEMPT_ENV] = previous_attempt


def _worker(conn, invariant_mode: str, heartbeat_every: int) -> None:
    """Entrypoint of one long-lived worker: run the cells the scheduler
    sends, one at a time, until it sends ``None``."""
    die_with_parent()
    while True:
        try:
            cell = conn.recv()
        except EOFError:
            return
        if cell is None:
            return
        envelope = _run_cell(*cell, invariant_mode, heartbeat_every)
        try:
            conn.send(envelope)
        except Exception as exc:  # unpicklable payload: degrade to an error
            conn.send(
                {
                    "error": f"cell result is not picklable: {exc!r}",
                    "pid": os.getpid(),
                }
            )


@dataclass
class _Pending:
    """One not-yet-concluded cell in the scheduler's queue."""

    idx: int
    job: SweepJob
    key: Optional[str]
    attempt: int = 1
    ready_at: float = 0.0  # monotonic time before which it may not start


@dataclass
class _Worker:
    """One long-lived worker process and the cell it holds, if any."""

    proc: Any
    conn: Any
    cell: Optional[_Pending] = None
    started: float = 0.0
    hb_path: Optional[str] = None
    #: Last heartbeat count read, and when the stall watchdog next
    #: checks that it moved.
    events: Optional[int] = None
    stall_at: float = 0.0


def _as_cache(cache) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _mp_context():
    """Fork when available: workers inherit registered job kinds and
    imported modules (spawn would re-import a bare interpreter)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _schedule(
    jobs: Sequence[SweepJob],
    *,
    workers: int,
    policy: SupervisePolicy,
    invariant_mode: str,
    cache=None,
    telemetry=None,
    logger=None,
    ledger=None,
    settled: Optional[Mapping[int, CellResult]] = None,
    first_attempt: Optional[Mapping[int, int]] = None,
    heartbeat_dir=None,
) -> Tuple[SweepResult, int]:
    """Run every cell not already ``settled``; merge in submission order.

    The one loop behind :func:`run_sweep` and
    :func:`repro.supervise.supervised_sweep`.  ``ledger`` (a
    :class:`~repro.supervise.manifest.RunManifest`) is told every state
    transition; ``first_attempt`` numbers a resumed cell's next
    attempt; stall heartbeats go to ``heartbeat_dir``.  Returns the
    result and the number of failed attempts that were retried.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    settled = settled or {}
    first_attempt = first_attempt or {}
    store = _as_cache(cache)
    report = SweepReport(jobs=len(jobs))
    cells: List[Optional[CellResult]] = [None] * len(jobs)
    retried = 0
    wall0 = time.perf_counter()

    def _ts() -> int:
        return int((time.perf_counter() - wall0) * 1e9)

    def _instant(name: str, **args: Any) -> None:
        if telemetry is not None and telemetry.enabled:
            telemetry.instant(SWEEP, name, _ts(), **args)

    if store is not None and store.on_corruption is None:
        def _report_corruption(key: str, reason: str) -> None:
            _instant("cache_corrupt", lane="cache", key=key, reason=reason)
            if logger is not None:
                logger.warning(
                    f"dropped corrupt cache entry {key[:12]}...: {reason}"
                )

        store.on_corruption = _report_corruption

    def _settle(idx: int, cell: CellResult) -> None:
        cells[idx] = cell
        if cell.cached:
            report.cached += 1
        else:
            report.executed += 1
        if cell.error is not None:
            report.errors += 1
        if cell.tainted:
            report.tainted += 1
        report.cpu_s += cell.process_s
        if cell.pid:
            report.worker_cells[cell.pid] = report.worker_cells.get(cell.pid, 0) + 1
            report.worker_cpu_s[cell.pid] = (
                report.worker_cpu_s.get(cell.pid, 0.0) + cell.process_s
            )
        if telemetry is not None and telemetry.enabled:
            telemetry.event(
                SWEEP,
                "cell",
                _ts(),
                lane=f"worker-{cell.pid}" if cell.pid else "cache",
                job=cell.job.label,
                cached=cell.cached,
                ok=cell.ok,
                wall_s=cell.wall_s,
                attempts=cell.attempts,
            )
        if logger is not None:
            status = "error" if cell.error else "ok"
            logger.debug(
                f"sweep cell {cell.job.label}: {status} "
                f"({cell.wall_s:.2f}s wall, pid {cell.pid})"
            )

    # 1. settled cells, then cache hits; queue the rest.
    queue: List[_Pending] = []
    for idx, job in enumerate(jobs):
        if idx in settled:
            _settle(idx, settled[idx])
            continue
        key = (
            store.key(job.kind, job.name, job.seed, job.spec)
            if store is not None
            else None
        )
        hit = store.load(key) if key is not None else None
        if hit is not None:
            if ledger is not None:
                ledger.record_done(idx, 0, hit)
            _settle(idx, CellResult(job=job, metrics=hit, cached=True))
            continue
        queue.append(_Pending(idx, job, key, first_attempt.get(idx, 1)))

    # 2. conclude one attempt: a settled cell or a requeued retry.
    def _conclude(p: _Pending, envelope: Dict[str, Any]) -> None:
        nonlocal retried
        ran = dict(
            job=p.job,
            attempts=p.attempt,
            pid=envelope.get("pid", 0),
            wall_s=envelope.get("wall_s", 0.0),
            process_s=envelope.get("process_s", 0.0),
        )
        error = envelope.get("error")
        if error is None:
            metrics = envelope.get("metrics")
            tainted = bool(envelope.get("tainted"))
            violations = tuple(envelope.get("violations", ()))
            if ledger is not None:
                ledger.record_done(
                    p.idx, p.attempt, metrics,
                    tainted=tainted, violations=list(violations),
                )
            if not tainted and p.key is not None and metrics is not None:
                # Tainted metrics never enter the cache: a warm hit
                # carries no violation record, so caching them would
                # launder the taint into a future "clean" sweep.
                store.store(p.key, metrics)
            _settle(p.idx, CellResult(
                metrics=metrics,
                payload=envelope.get("payload"),
                tainted=tainted,
                violations=violations,
                **ran,
            ))
            return
        code = envelope.get("error_code", "error")
        final = p.attempt >= policy.max_attempts
        if ledger is not None:
            ledger.record_failure(
                p.idx, p.attempt, error, error_code=code, final=final
            )
        if final:
            if logger is not None:
                logger.warning(
                    f"quarantined {p.job.label} after {p.attempt} attempt(s): "
                    f"{error.splitlines()[0]}"
                )
            _settle(p.idx, CellResult(error=error, error_code=code, **ran))
            return
        retried += 1
        delay = policy.backoff_s(p.job, p.attempt)
        _instant(
            "cell_retry",
            lane="scheduler",
            job=p.job.label,
            attempt=p.attempt,
            backoff_s=delay,
            error_code=code,
        )
        if logger is not None:
            logger.warning(
                f"retrying {p.job.label} (attempt {p.attempt} failed: "
                f"{error.splitlines()[0]}; backoff {delay:.2f}s)"
            )
        queue.append(
            _Pending(p.idx, p.job, p.key, p.attempt + 1, time.monotonic() + delay)
        )

    # 3. run the queue: in this process when one worker and no watchdog
    #    suffice, on long-lived forked workers otherwise.
    width = min(workers, max(len(queue), 1))
    report.workers = width
    inprocess = width == 1 and not policy.watchdog
    if queue and policy.stall_s > 0:
        heartbeat_dir.mkdir(parents=True, exist_ok=True)
    ctx = _mp_context()
    pool: List[_Worker] = []

    def _launch(p: _Pending) -> bool:
        """Start ``p`` on an idle or new worker; False if none is free."""
        if inprocess:
            if ledger is not None:
                ledger.record_running(p.idx, p.attempt, pid=os.getpid())
            _conclude(p, _run_cell(
                p.job, p.attempt, None, invariant_mode, policy.heartbeat_every
            ))
            return True
        w = next((w for w in pool if w.cell is None), None)
        if w is None:
            if len(pool) >= width:
                return False
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker,
                args=(child_conn, invariant_mode, policy.heartbeat_every),
                name="repro-sweep-worker",
            )
            proc.start()
            child_conn.close()
            w = _Worker(proc, conn)
            pool.append(w)
        w.hb_path = None
        if policy.stall_s > 0:
            w.hb_path = str(heartbeat_dir / f"cell-{p.idx}.hb")
            with contextlib.suppress(OSError):
                os.unlink(w.hb_path)
        try:
            w.conn.send((p.job, p.attempt, w.hb_path))
        except OSError:
            pass  # the worker died idle: the wait reads that as this cell's death
        except Exception as exc:  # an unpicklable job cannot leave this process
            _conclude(p, {"error": f"{type(exc).__name__}: {exc}"})
            return True
        if ledger is not None:
            ledger.record_running(p.idx, p.attempt, pid=w.proc.pid or 0)
        w.cell, w.events = p, None
        w.started = time.monotonic()
        w.stall_at = w.started + policy.stall_s
        return True

    def _retire(w: _Worker) -> None:
        pool.remove(w)
        w.proc.kill()  # a no-op on a worker that already exited
        w.proc.join()
        w.conn.close()

    try:
        while True:
            now = time.monotonic()
            for p in [p for p in queue if p.ready_at <= now]:
                if not _launch(p):
                    break
                queue.remove(p)
            busy = [w for w in pool if w.cell is not None]
            if not busy and not queue:
                break
            deadlines = []
            for w in busy:
                if policy.timeout_s > 0:
                    deadlines.append(w.started + policy.timeout_s)
                if policy.stall_s > 0:
                    deadlines.append(w.stall_at)
            if len(busy) < width:
                deadlines.extend(p.ready_at for p in queue)
            timeout = (
                max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            )
            ready = set(wait(
                [w.conn for w in busy] + [w.proc.sentinel for w in pool],
                timeout,
            ))
            now = time.monotonic()
            for w in list(pool):
                p = w.cell
                if p is None:
                    if w.proc.sentinel in ready:  # died idle: costs no cell
                        _retire(w)
                    continue
                if w.conn in ready or w.proc.sentinel in ready:
                    try:
                        envelope = w.conn.recv()
                        w.cell = None
                    except (EOFError, OSError):
                        w.proc.join(5)
                        envelope = {
                            "error": (
                                "worker process died while running this "
                                f"cell (exit code {w.proc.exitcode})"
                            ),
                            "pid": w.proc.pid or 0,
                        }
                        _retire(w)
                    _conclude(p, envelope)
                    continue
                if policy.timeout_s > 0 and now >= w.started + policy.timeout_s:
                    kind = "timeout"
                    what = f"exceeded {policy.timeout_s:g}s wall-clock budget (killed)"
                elif policy.stall_s > 0 and now >= w.stall_at:
                    events = _read_heartbeat(w.hb_path)
                    if events != w.events:  # progressed within the window
                        w.events, w.stall_at = events, now + policy.stall_s
                        continue
                    kind = "stall"
                    what = f"no sim-event progress for {policy.stall_s:g}s (stalled; killed)"
                else:
                    continue
                _retire(w)
                _instant(
                    "cell_timeout",
                    lane="scheduler",
                    job=p.job.label,
                    kind=kind,
                    attempt=p.attempt,
                )
                _conclude(p, {
                    "error": f"CellTimeout: {what}",
                    "error_code": "cell-timeout",
                    "pid": w.proc.pid or 0,
                })
    finally:
        # Idle workers exit on None; one still holding a cell was
        # interrupted mid-cell and is killed.  Leave no orphans.
        for w in pool:
            if w.cell is None:
                with contextlib.suppress(OSError):
                    w.conn.send(None)
        for w in list(pool):
            if w.cell is None:
                w.proc.join(5)
            _retire(w)

    report.wall_s = time.perf_counter() - wall0
    if telemetry is not None and telemetry.enabled:
        ts = int(report.wall_s * 1e9)
        telemetry.counter(SWEEP, "cells", ts, float(report.jobs))
        telemetry.counter(SWEEP, "cache_hits", ts, float(report.cached))
        telemetry.counter(SWEEP, "errors", ts, float(report.errors))
        if report.tainted:
            telemetry.counter(SWEEP, "tainted", ts, float(report.tainted))
        if retried:
            telemetry.counter(SWEEP, "retried_attempts", ts, float(retried))
    return SweepResult(cells=list(cells), report=report), retried  # type: ignore[arg-type]


def run_sweep(
    jobs: Sequence[SweepJob],
    *,
    workers: int = 1,
    cache=None,
    telemetry=None,
    logger=None,
) -> SweepResult:
    """Run every cell; merge results in submission order.

    ``workers`` is the number of worker processes (1 = in-process
    serial execution through the very same cell entrypoint).  A cell
    whose worker dies gets a ``worker process died`` error; every
    other cell still runs.  ``cache`` is a :class:`ResultCache`, a
    directory path, or ``None``; cached cells are served without
    starting a worker.  ``telemetry`` is an optional
    :class:`~repro.telemetry.TelemetryBus` the sweep reports
    orchestration records to (timestamps are wall-clock nanoseconds
    since sweep start — sweeps happen in real time, not sim time).
    """
    result, _ = _schedule(
        list(jobs),
        workers=workers,
        policy=_UNSUPERVISED,
        invariant_mode=_invariants.current().mode,
        cache=cache,
        telemetry=telemetry,
        logger=logger,
    )
    if logger is not None:
        logger.debug(result.report.render())
    return result
