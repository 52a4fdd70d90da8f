"""Sweep engine: ordering, caching, error capture, crash containment.

The cell kinds registered here are module-level functions so that
fork-started workers inherit them (the engine's pool uses the fork
start method exactly for this reason).
"""

import os
import time

import pytest

from repro.errors import ConfigError
from repro.parallel import (
    ResultCache,
    SweepJob,
    register_job_kind,
    run_sweep,
)
from repro.supervise import SupervisePolicy, supervised_sweep
from repro.telemetry import SWEEP, TelemetryBus


def _square(job):
    # Finish out of submission order under a pool: earlier cells
    # sleep longer, so completion order inverts submission order.
    time.sleep(0.05 * max(0, 3 - job.seed))
    return {"value": float(job.seed * job.seed)}


def _boom(job):
    if job.seed == 1:
        raise ValueError("cell exploded")
    return {"value": float(job.seed)}


def _die(job):
    if job.seed == 1:
        os._exit(13)
    time.sleep(0.1)
    return {"value": float(job.seed)}


def _payload(job):
    return ["not", "a", "metrics", "mapping", job.seed]


def _interrupt(job):
    raise KeyboardInterrupt


register_job_kind("test-square", _square)
register_job_kind("test-boom", _boom)
register_job_kind("test-die", _die)
register_job_kind("test-payload", _payload)
register_job_kind("test-interrupt", _interrupt)


def _jobs(kind, seeds, spec=None):
    return [SweepJob(kind, "t", s, dict(spec or {})) for s in seeds]


def _outcome(cell):
    """Everything about a cell except where and how long it ran."""
    return (
        cell.job, cell.metrics, cell.payload, cell.error,
        cell.tainted, cell.cached, cell.attempts,
    )


class TestMergeOrder:
    @pytest.mark.parametrize(
        "supervised, workers, timeout_s",
        [
            (False, 3, 0),
            (True, 1, 0),
            (True, 1, 30),
            (True, 3, 0),
            (True, 3, 30),
        ],
        ids=[
            "pool",
            "supervised-1",
            "supervised-1-timeout",
            "supervised-3",
            "supervised-3-timeout",
        ],
    )
    def test_serial_and_parallel_results_identical(
        self, tmp_path, supervised, workers, timeout_s
    ):
        jobs = _jobs("test-square", range(4))
        serial = run_sweep(jobs, workers=1)
        if supervised:
            other = supervised_sweep(
                jobs,
                run_dir=tmp_path,
                workers=workers,
                policy=SupervisePolicy(timeout_s=timeout_s),
            ).result
        else:
            other = run_sweep(jobs, workers=workers)
        assert other.values("value") == (0.0, 1.0, 4.0, 9.0)
        assert [_outcome(c) for c in other.cells] == [
            _outcome(c) for c in serial.cells
        ]

    def test_results_carry_worker_pids(self):
        pooled = run_sweep(_jobs("test-square", range(3)), workers=2)
        assert all(c.pid > 0 for c in pooled.cells)
        assert pooled.report.executed == 3
        assert set(pooled.report.worker_cells) == {
            c.pid for c in pooled.cells
        }

    def test_payload_cells_pass_objects_through(self):
        result = run_sweep(_jobs("test-payload", [5]), workers=1)
        assert result.cells[0].payload == ["not", "a", "metrics", "mapping", 5]
        assert result.cells[0].metrics is None

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_sweep([], workers=0)

    def test_unknown_kind_is_a_cell_error(self):
        result = run_sweep([SweepJob("no-such-kind", "t", 1)], workers=1)
        assert not result.cells[0].ok
        assert "no-such-kind" in result.cells[0].error


class TestCacheIntegration:
    def test_cold_then_warm(self, tmp_path):
        jobs = _jobs("test-square", range(3), {"alpha": 1})
        cold = run_sweep(jobs, workers=1, cache=tmp_path)
        assert (cold.report.executed, cold.report.cached) == (3, 0)
        warm = run_sweep(jobs, workers=1, cache=tmp_path)
        assert (warm.report.executed, warm.report.cached) == (0, 3)
        assert warm.values("value") == cold.values("value")
        assert all(c.cached for c in warm.cells)

    def test_spec_change_invalidates(self, tmp_path):
        run_sweep(_jobs("test-square", [2], {"alpha": 1}), cache=tmp_path)
        miss = run_sweep(_jobs("test-square", [2], {"alpha": 2}), cache=tmp_path)
        assert miss.report.cached == 0

    def test_version_change_invalidates(self, tmp_path):
        run_sweep(
            _jobs("test-square", [2]), cache=ResultCache(tmp_path, version="a")
        )
        miss = run_sweep(
            _jobs("test-square", [2]), cache=ResultCache(tmp_path, version="b")
        )
        assert miss.report.cached == 0

    def test_uncacheable_spec_still_runs(self, tmp_path):
        jobs = [SweepJob("test-square", "t", 2, {"fn": lambda: 0})]
        first = run_sweep(jobs, workers=1, cache=tmp_path)
        again = run_sweep(jobs, workers=1, cache=tmp_path)
        assert first.values("value") == again.values("value") == (4.0,)
        assert again.report.cached == 0  # never stored, never wrongly hit

    def test_errors_are_not_cached(self, tmp_path):
        jobs = _jobs("test-boom", [1])
        run_sweep(jobs, workers=1, cache=tmp_path)
        rerun = run_sweep(jobs, workers=1, cache=tmp_path)
        assert rerun.report.cached == 0
        assert rerun.report.errors == 1


class TestErrorContainment:
    def test_exception_captured_per_cell_with_traceback(self):
        result = run_sweep(_jobs("test-boom", range(3)), workers=2)
        errs = result.failed()
        assert len(errs) == 1
        assert errs[0].job.seed == 1
        assert "ValueError: cell exploded" in errs[0].error
        assert "Traceback" in errs[0].error
        # Healthy cells still completed.
        assert result.cells[0].metrics == {"value": 0.0}
        assert result.cells[2].metrics == {"value": 2.0}

    def test_unpicklable_job_is_a_cell_error(self):
        # A job that cannot be sent to a worker fails alone.
        jobs = _jobs("test-square", range(2))
        jobs.append(SweepJob("test-square", "t", 2, {"fn": lambda: 0}))
        result = run_sweep(jobs, workers=2)
        [bad] = result.failed()
        assert bad.job.seed == 2
        assert "pickle" in bad.error.lower()
        assert [c.metrics for c in result.cells[:2]] == [
            {"value": 0.0}, {"value": 1.0}
        ]

    def test_interrupt_stops_an_in_process_sweep(self):
        # Ctrl-C during `repro figures` (one in-process worker) must reach
        # the caller, not be recorded as a cell error while the rest run.
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_jobs("test-interrupt", range(2)), workers=1)

    def test_values_on_failed_sweep_raises(self):
        result = run_sweep(_jobs("test-boom", [1]), workers=1)
        with pytest.raises(ConfigError, match="no metric"):
            result.values("value")

    def test_crashed_worker_yields_cell_errors_not_a_hang(self):
        # Seed 1's worker hard-exits mid-cell.  Only that cell fails;
        # its worker is replaced and every other cell completes with
        # its value, in submission order.
        result = run_sweep(_jobs("test-die", range(4)), workers=2)
        [crashed] = result.failed()
        assert crashed.job.seed == 1
        assert "worker process died" in crashed.error
        assert "exit code 13" in crashed.error
        assert [c.metrics for c in result.cells] == [
            {"value": 0.0}, None, {"value": 2.0}, {"value": 3.0}
        ]
        assert result.report.errors == 1


class TestTelemetry:
    def test_sweep_records_on_the_bus(self):
        bus = TelemetryBus()
        run_sweep(_jobs("test-square", range(2)), workers=1, telemetry=bus)
        cells = [r for r in bus.select(cat=SWEEP) if r.name == "cell"]
        assert len(cells) == 2
        counters = [r.name for r in bus.select(kind="counter", cat=SWEEP)]
        assert {"cells", "cache_hits", "errors"} <= set(counters)

    def test_cache_hits_marked_in_telemetry(self, tmp_path):
        jobs = _jobs("test-square", range(2))
        run_sweep(jobs, workers=1, cache=tmp_path)
        bus = TelemetryBus()
        run_sweep(jobs, workers=1, cache=tmp_path, telemetry=bus)
        hits = [
            r
            for r in bus.select(cat=SWEEP)
            if r.name == "cell" and r.args_dict().get("cached")
        ]
        assert len(hits) == 2
