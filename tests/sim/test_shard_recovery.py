"""Crash-recovery fence: a killed, respawned, replayed run == serial.

The tentpole claim of the checkpoint/recovery subsystem is digest
equality under fire: SIGKILL a fork worker mid-run and the run must
still complete with metrics byte-identical to an uninterrupted serial
run — recovery is allowed to cost wall-clock, never bits.  The same
holds for a run resumed from an on-disk barrier checkpoint, on either
backend (the journal is backend-portable).  Error paths are pinned
too: without recovery armed, a worker death must name the barrier,
the window and the killing signal; with a budget of zero it must name
the exhausted budget.
"""

import json

import pytest

from repro.errors import CheckpointError, ConfigError, ShardSyncError
from repro.experiments.cluster import cluster_spec, run_cluster, scaled_spec
from repro.faults import WorkerKill, parse_worker_kill
from repro.sim import Environment
from repro.sim.checkpoint import (
    CheckpointConfig,
    RecoveryPolicy,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.shard import Mailbox, run_sharded
from repro.supervise.manifest import result_digest

SMOKE = scaled_spec(cluster_spec("cluster_smoke"), 0.02)


def _canonical(metrics):
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def serial_reference():
    return run_cluster(SMOKE, seed=7).metrics()


class TestKillRecovery:
    def test_sigkilled_worker_recovers_to_serial_digest(
        self, serial_reference, tmp_path
    ):
        """The acceptance differential: kill shard 1 at barrier 2,
        respawn + journal replay, finish — same digest as serial."""
        kill = WorkerKill(shard=1, at_barrier=2)
        result = run_cluster(
            SMOKE, seed=7, shards=4, backend="fork",
            checkpoint_dir=tmp_path / "ckpt", worker_faults=(kill,),
        )
        assert kill.fired == 2
        assert result.shard_stats.respawns == 1
        assert result.shard_stats.to_dict()["respawns"] == 1
        metrics = result.metrics()
        assert _canonical(metrics) == _canonical(serial_reference)
        assert result_digest(metrics) == result_digest(serial_reference)

    def test_recovery_without_checkpoint_dir_still_replays(
        self, serial_reference
    ):
        """Recovery needs only the in-memory journal; the disk
        checkpoint is for cross-process resume."""
        kill = WorkerKill(shard=0, at_barrier=1)
        result = run_cluster(
            SMOKE, seed=7, shards=2, backend="fork",
            recovery=RecoveryPolicy(backoff_base_s=0.01, backoff_seed=7),
            worker_faults=(kill,),
        )
        assert kill.fired == 1
        assert result.shard_stats.respawns == 1
        assert _canonical(result.metrics()) == _canonical(serial_reference)

    def test_unrecovered_death_names_barrier_window_and_signal(self):
        with pytest.raises(ShardSyncError) as err:
            run_cluster(
                SMOKE, seed=7, shards=2, backend="fork",
                worker_faults=(WorkerKill(shard=1, at_barrier=2),),
            )
        message = str(err.value)
        assert "shard 1" in message
        assert "barrier" in message
        assert "window" in message
        assert "killed by signal 9 (SIGKILL)" in message
        assert "recovery is off" in message

    def test_exhausted_respawn_budget_is_terminal_and_named(self):
        with pytest.raises(ShardSyncError, match="respawn budget exhausted"):
            run_cluster(
                SMOKE, seed=7, shards=2, backend="fork",
                recovery=RecoveryPolicy(max_respawns=0),
                worker_faults=(WorkerKill(shard=0, at_barrier=1),),
            )


class TestDiskRestore:
    def test_fork_restore_matches_serial(self, serial_reference, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = run_cluster(
            SMOKE, seed=7, shards=2, backend="fork",
            checkpoint_dir=ckpt, checkpoint_every=4,
        )
        files = list_checkpoints(ckpt)
        assert files, "cadence 4 over this horizon must write checkpoints"
        assert len(files) <= CheckpointConfig(dir=ckpt).keep
        resumed = run_cluster(
            SMOKE, seed=7, shards=2, backend="fork",
            checkpoint_dir=ckpt, checkpoint_every=4, restore=True,
        )
        assert _canonical(first.metrics()) == _canonical(serial_reference)
        assert _canonical(resumed.metrics()) == _canonical(serial_reference)

    @pytest.mark.parametrize(
        "writer,reader",
        [("fork", "inline"), ("inline", "fork"),
         ("fork", "fork"), ("inline", "inline")],
    )
    def test_checkpoint_restores_on_either_backend(
        self, serial_reference, tmp_path, writer, reader
    ):
        """The journal records frame bytes, not process state — a
        checkpoint written by either backend restores on either."""
        ckpt = tmp_path / "ckpt"
        run_cluster(
            SMOKE, seed=7, shards=2, backend=writer,
            checkpoint_dir=ckpt, checkpoint_every=4,
        )
        resumed = run_cluster(
            SMOKE, seed=7, shards=2, backend=reader,
            checkpoint_dir=ckpt, checkpoint_every=4, restore=True,
        )
        assert _canonical(resumed.metrics()) == _canonical(serial_reference)

    def test_restore_refuses_a_different_seed(self, tmp_path):
        """The world key binds a checkpoint to (spec, seed, horizon);
        resuming someone else's run is an error, not a silent restart."""
        ckpt = tmp_path / "ckpt"
        run_cluster(
            SMOKE, seed=7, shards=2, backend="inline",
            checkpoint_dir=ckpt, checkpoint_every=4,
        )
        with pytest.raises(CheckpointError, match="refusing to restore"):
            run_cluster(
                SMOKE, seed=8, shards=2, backend="inline",
                checkpoint_dir=ckpt, checkpoint_every=4, restore=True,
            )

    @pytest.mark.parametrize("forged", ["other-map", "unrecorded"])
    def test_restore_refuses_a_checkpoint_from_another_shard_map(
        self, tmp_path, forged
    ):
        """A journal replays only into shards that own the same
        domains.  A checkpoint written under another map — forged here,
        or one that predates the recorded map and so was written under
        the count split {0,1 | 2,3} — is refused before any replay,
        naming the field."""
        ckpt = tmp_path / "ckpt"
        run_cluster(
            SMOKE, seed=7, shards=2, backend="inline",
            checkpoint_dir=ckpt, checkpoint_every=4,
        )
        payload = load_checkpoint(list_checkpoints(ckpt)[-1])
        assert payload["shard_map"] == [[0], [1, 2, 3]]
        if forged == "other-map":
            payload["shard_map"] = [[0, 1], [2, 3]]
        else:
            del payload["shard_map"]
        tampered = CheckpointConfig(dir=tmp_path / "tampered")
        save_checkpoint(tampered, payload)
        with pytest.raises(
            CheckpointError, match=r"shard_map is \[\[0, 1\], \[2, 3\]\]"
        ):
            run_cluster(
                SMOKE, seed=7, shards=2, backend="inline",
                checkpoint_dir=tampered.dir, checkpoint_every=4,
                restore=True,
            )

    def test_restore_from_empty_directory_is_a_fresh_run(
        self, serial_reference, tmp_path
    ):
        result = run_cluster(
            SMOKE, seed=7, shards=2, backend="inline",
            checkpoint_dir=tmp_path / "never-written",
            checkpoint_every=4, restore=True,
        )
        assert _canonical(result.metrics()) == _canonical(serial_reference)


LOOKAHEAD = 100


class PingWorld:
    """Toy world: each ``(at, src, dst, extra)`` row mails ``dst`` once,
    at ``at``, with ``LOOKAHEAD + extra`` of latency."""

    def __init__(self, domains, schedule):
        self.env = Environment()
        self.mailbox = Mailbox(self.env, LOOKAHEAD)
        self.log = []
        for d in domains:
            self.mailbox.register(d, self._on_msg)
        for at, src, dst, extra in schedule:
            if src in domains:
                self.env.process(self._send(at, src, dst, extra))

    def _send(self, at, src, dst, extra):
        yield self.env.timeout(at)
        self.mailbox.send(src, dst, LOOKAHEAD + extra, "ping", (at,))

    def _on_msg(self, msg):
        self.log.append((self.env.now, msg.origin, msg.payload))

    def finalize(self):
        return self.log


#: Two pings from domain 0 to domain 1 (shard 0 to shard 1).  A build
#: that changes only the second ping's latency regenerates the first two
#: exchanges' frames, horizons included, unchanged: its replay diverges
#: at exchange 2, where that ping leaves shard 0.
PINGS = [(0, 0, 1, 0), (350, 0, 1, 0)]
PINGS_SLOWER = [(0, 0, 1, 0), (350, 0, 1, 40)]


def _run_pings(schedule, backend, ckpt, restore=False, **kwargs):
    return run_sharded(
        lambda doms: PingWorld(range(2) if doms is None else doms, schedule),
        n_domains=2,
        shards=2,
        until_ns=1_500,
        lookahead_ns=LOOKAHEAD,
        merge=lambda parts: sorted(e for part in parts for e in part),
        backend=backend,
        checkpoint=CheckpointConfig(dir=ckpt, every=1),
        restore=restore,
        world_key="pings",
        **kwargs,
    )


@pytest.mark.parametrize("backend", ["inline", "fork"])
class TestReplayDivergence:
    def test_restore_with_a_different_build_names_shard_and_exchange(
        self, tmp_path, backend
    ):
        """A rebuild whose regenerated outbox frame differs from the
        journaled digest is a broken determinism contract, not a
        recoverable fault."""
        ckpt = tmp_path / "ckpt"
        _run_pings(PINGS, backend, ckpt)
        payload = load_checkpoint(list_checkpoints(ckpt)[-1])
        assert len(payload["journal_frames"][0]) >= 2
        with pytest.raises(
            ShardSyncError, match="shard 0 diverged during replay at exchange 2"
        ):
            _run_pings(PINGS_SLOWER, backend, ckpt, restore=True)

    @pytest.mark.parametrize("field", ["k", "stride"])
    def test_loop_state_that_disagrees_with_its_journal_is_refused(
        self, tmp_path, backend, field
    ):
        ckpt = tmp_path / "ckpt"
        _run_pings(PINGS, backend, ckpt)
        payload = load_checkpoint(list_checkpoints(ckpt)[-1])
        payload[field] -= 1 if field == "k" else -1
        tampered = CheckpointConfig(dir=tmp_path / "tampered")
        save_checkpoint(tampered, payload)
        with pytest.raises(CheckpointError, match="does not match its own journal"):
            _run_pings(PINGS, backend, tampered.dir, restore=True)


class TestInlineRecovery:
    def test_a_shard_lost_mid_run_is_respawned_and_replayed(
        self, monkeypatch, tmp_path
    ):
        """Recovery lives in the shared barrier loop, not in the worker
        processes: an inline transport that loses a shard once heals
        exactly like a killed fork worker."""
        from repro.sim import shard

        clean, _ = _run_pings(PINGS, "inline", tmp_path / "clean")
        outbox = shard._InlineTransport.outbox
        calls = []

        def flaky(self, s, limit):
            calls.append(s)
            if s == 1 and calls.count(1) == 3:
                raise shard._ShardDied("simulated loss")
            return outbox(self, s, limit)

        monkeypatch.setattr(shard._InlineTransport, "outbox", flaky)
        healed, stats = _run_pings(
            PINGS, "inline", tmp_path / "healed",
            recovery=RecoveryPolicy(backoff_base_s=0.0),
        )
        assert stats.respawns == 1
        assert healed == clean


class TestConfigSurface:
    def test_serial_run_refuses_checkpointing(self, tmp_path):
        with pytest.raises(ConfigError, match="barrier"):
            run_cluster(SMOKE, seed=7, checkpoint_dir=tmp_path / "c")

    def test_worker_faults_need_fork_workers(self):
        with pytest.raises(ConfigError, match="fork"):
            run_cluster(
                SMOKE, seed=7, shards=2, backend="inline",
                worker_faults=(WorkerKill(shard=0, at_barrier=1),),
            )

    def test_parse_worker_kill(self):
        from repro.errors import FaultError

        fault = parse_worker_kill("1@2")
        assert fault.shard == 1 and fault.at_barrier == 2
        for bad in ("", "1", "a@b", "1@", "@2"):
            with pytest.raises(FaultError, match="SHARD@BARRIER"):
                parse_worker_kill(bad)


class TestSupervisedCells:
    def test_cluster_cells_get_a_checkpoint_dir_injected(self, tmp_path):
        from repro.parallel.engine import SweepJob
        from repro.supervise.supervisor import _with_cell_checkpoint

        job = SweepJob("cluster", "cluster_smoke", 7, {"shards": 2})
        out = _with_cell_checkpoint(job, tmp_path, 3)
        assert out.spec["checkpoint_dir"] == str(
            tmp_path / "checkpoints" / "cell-3"
        )
        assert out.spec["restore"] is True
        # The injected knobs are execution-only: the content address
        # (and therefore the ledger identity) must not move.
        from repro.parallel.cache import cell_key

        assert cell_key(
            job.kind, job.name, job.seed, job.spec
        ) == cell_key(out.kind, out.name, out.seed, out.spec)

    def test_serial_and_service_cells_left_alone(self, tmp_path):
        from repro.parallel.engine import SweepJob
        from repro.supervise.supervisor import _with_cell_checkpoint

        serial = SweepJob("cluster", "cluster_smoke", 7, {})
        assert _with_cell_checkpoint(serial, tmp_path, 0) is serial
        service = SweepJob("service", "burst", 7, {"shards": 4})
        assert _with_cell_checkpoint(service, tmp_path, 0) is service

    def test_explicit_checkpoint_dir_wins(self, tmp_path):
        from repro.parallel.engine import SweepJob
        from repro.supervise.supervisor import _with_cell_checkpoint

        job = SweepJob(
            "cluster", "cluster_smoke", 7,
            {"shards": 2, "checkpoint_dir": "/elsewhere"},
        )
        assert _with_cell_checkpoint(job, tmp_path, 0) is job
