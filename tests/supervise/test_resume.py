"""Kill-and-resume: SIGKILL a sweep mid-flight, resume, prove
byte-identical results against an uninterrupted run."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import killhelper  # noqa: E402  (registers the cell kind in this process)

from repro.supervise import (  # noqa: E402
    DONE,
    RunManifest,
    SupervisePolicy,
    resume_sweep,
    supervised_sweep,
)

N_CELLS = 6
FAST = SupervisePolicy(backoff_base_s=0.001)

_VICTIM_SCRIPT = """
import pathlib, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {helper_dir!r})
import killhelper
from repro.supervise import SupervisePolicy, supervised_sweep

supervised_sweep(
    killhelper.jobs({n}),
    run_dir={run_dir!r},
    run_id="victim",
    workers={workers},
    policy=SupervisePolicy(backoff_base_s=0.001),
)
"""


def _count_done(manifest_path) -> int:
    try:
        text = manifest_path.read_text()
    except OSError:
        return 0
    return sum(
        1 for line in text.splitlines() if '"state":"done"' in line
    )


def _running(pid) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestKillAndResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigkill_mid_sweep_resumes_byte_identical(self, tmp_path, workers):
        src = str(pathlib.Path(__file__).parents[2] / "src")
        helper_dir = str(pathlib.Path(__file__).parent)
        run_dir = tmp_path / "runs"
        script = _VICTIM_SCRIPT.format(
            src=src,
            helper_dir=helper_dir,
            n=N_CELLS,
            run_dir=str(run_dir),
            workers=workers,
        )
        proc = subprocess.Popen([sys.executable, "-c", script])
        manifest_path = run_dir / "victim" / "manifest.jsonl"

        # Wait until at least two cells have been checkpointed, then
        # SIGKILL the whole sweep — no cleanup handlers run.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if _count_done(manifest_path) >= 2:
                break
            if proc.poll() is not None:
                pytest.fail(
                    f"victim sweep exited early (rc={proc.returncode}) "
                    f"before it could be killed"
                )
            time.sleep(0.01)
        else:
            pytest.fail("victim sweep never checkpointed two cells")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(10)
        assert proc.returncode == -signal.SIGKILL

        done_at_kill = _count_done(manifest_path)
        assert 2 <= done_at_kill < N_CELLS, (
            f"kill landed too late ({done_at_kill}/{N_CELLS} done); "
            f"nothing left to resume"
        )
        if workers > 1:
            # Every worker notices its parent died, idle or mid-cell:
            # no orphan keeps running cells, heartbeats or checkpoints.
            pids = {
                json.loads(line)["record"].get("pid")
                for line in manifest_path.read_text().splitlines()
                if '"state":"running"' in line
            }
            assert pids and proc.pid not in pids
            deadline = time.monotonic() + 5
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = [pid for pid in pids if _running(pid)]
            for pid in orphans:
                os.kill(pid, signal.SIGKILL)
            assert not orphans

        # Resume: completed cells come from the ledger, the rest run.
        resumed = resume_sweep("victim", run_dir=run_dir, policy=FAST)
        assert resumed.complete
        assert resumed.resumed == done_at_kill
        assert resumed.report.executed == N_CELLS - done_at_kill

        # The proof: resumed output == uninterrupted output, byte for
        # byte (timing fields excluded by construction).
        reference = supervised_sweep(
            killhelper.jobs(N_CELLS),
            run_dir=run_dir,
            run_id="reference",
            policy=FAST,
        )
        a = json.dumps(resumed.deterministic_dict(), sort_keys=True)
        b = json.dumps(reference.deterministic_dict(), sort_keys=True)
        assert a == b

    def test_interrupted_attempt_replays_as_pending(self, tmp_path):
        """In-process variant: a manifest whose last record is a
        ``running`` state (exactly what SIGKILL leaves) re-runs that
        cell on resume."""
        run_dir = tmp_path / "runs"
        sup = supervised_sweep(
            killhelper.jobs(3),
            run_dir=run_dir,
            run_id="partial",
            policy=FAST,
        )
        manifest = RunManifest(run_dir / "partial" / "manifest.jsonl")
        # Forge the crash: cell 2's conclusion never made it to disk.
        lines = manifest.path.read_text().splitlines()
        kept = [
            ln
            for ln in lines
            if not ('"index":2' in ln and '"state":"done"' in ln)
        ]
        manifest.path.write_text("\n".join(kept) + "\n")
        manifest.record_running(2, 1)

        state = manifest.replay()
        assert state.cells[2].state == "running"

        resumed = resume_sweep("partial", run_dir=run_dir, policy=FAST)
        assert resumed.complete
        assert resumed.resumed == 2
        assert resumed.report.executed == 1
        assert resumed.cells[2].attempts == 1  # re-ran the killed attempt
        a = json.dumps(sup.deterministic_dict(), sort_keys=True)
        b = json.dumps(resumed.deterministic_dict(), sort_keys=True)
        assert a == b

    def test_resume_state_counts(self, tmp_path):
        run_dir = tmp_path / "runs"
        supervised_sweep(
            killhelper.jobs(2),
            run_dir=run_dir,
            run_id="counts",
            policy=FAST,
        )
        state = RunManifest(run_dir / "counts" / "manifest.jsonl").replay()
        assert state.counts()[DONE] == 2
        assert state.n_jobs == 2


class TestShardedCellResume:
    """Supervised sweeps of *sharded* cluster cells (``shards`` in the
    cell spec partitions each run across workers, bit-identically —
    :mod:`repro.sim.shard`) must checkpoint and resume exactly like
    serial ones, and their ledgers must be interchangeable with a
    serial sweep's."""

    SEEDS = (7, 8)

    def _jobs(self, shards):
        from repro.parallel import SweepJob

        spec = {"sim_s": 0.02}
        if shards > 1:
            spec["shards"] = shards
        return [
            SweepJob("cluster", "cluster_smoke", seed, dict(spec))
            for seed in self.SEEDS
        ]

    def test_interrupted_sharded_sweep_resumes_byte_identical(self, tmp_path):
        run_dir = tmp_path / "runs"
        sup = supervised_sweep(
            self._jobs(shards=2),
            run_dir=run_dir,
            run_id="sharded",
            policy=FAST,
        )
        assert sup.complete

        # Forge the SIGKILL: the last cell's conclusion never hit disk.
        manifest = RunManifest(run_dir / "sharded" / "manifest.jsonl")
        victim = len(self.SEEDS) - 1
        lines = manifest.path.read_text().splitlines()
        kept = [
            ln
            for ln in lines
            if not (f'"index":{victim}' in ln and '"state":"done"' in ln)
        ]
        manifest.path.write_text("\n".join(kept) + "\n")
        manifest.record_running(victim, 1)

        resumed = resume_sweep(
            "sharded", run_dir=run_dir, jobs=self._jobs(shards=2), policy=FAST
        )
        assert resumed.complete
        assert resumed.resumed == victim
        assert resumed.report.executed == 1
        a = json.dumps(sup.deterministic_dict(), sort_keys=True)
        b = json.dumps(resumed.deterministic_dict(), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize(
        "workers, timeout_s", [(1, 120), (2, 0)], ids=["timeout", "workers-2"]
    )
    def test_sharded_cells_run_in_forked_workers(
        self, tmp_path, workers, timeout_s
    ):
        """A sweep worker forks the cell's shard workers itself, so it
        must not be a daemonic process."""
        from repro.parallel import SweepJob

        jobs = [
            SweepJob("cluster", "cluster_smoke", seed, {"sim_s": 0.01, "shards": 2})
            for seed in self.SEEDS
        ]
        forked = supervised_sweep(
            jobs,
            run_dir=tmp_path,
            run_id="forked",
            workers=workers,
            policy=SupervisePolicy(retries=0, timeout_s=timeout_s),
        )
        inprocess = supervised_sweep(
            jobs,
            run_dir=tmp_path,
            run_id="in-process",
            policy=SupervisePolicy(retries=0),
        )
        assert forked.complete, [c.error for c in forked.cells]
        assert all(c.pid != os.getpid() for c in forked.cells)
        assert [c.metrics for c in forked.cells] == [
            c.metrics for c in inprocess.cells
        ]

    def test_sharded_ledger_matches_serial_ledger(self, tmp_path):
        """The deterministic projection of a sharded supervised sweep is
        byte-identical to a serial sweep of the same cells — shard count
        is an execution knob, not an input."""
        run_dir = tmp_path / "runs"
        sharded = supervised_sweep(
            self._jobs(shards=2),
            run_dir=run_dir,
            run_id="sharded-ref",
            policy=FAST,
        )
        serial = supervised_sweep(
            self._jobs(shards=1),
            run_dir=run_dir,
            run_id="serial-ref",
            policy=FAST,
        )
        a = json.dumps(sharded.deterministic_dict(), sort_keys=True)
        b = json.dumps(serial.deterministic_dict(), sort_keys=True)
        assert a == b
