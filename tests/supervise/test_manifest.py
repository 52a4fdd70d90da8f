"""Run manifest: atomic appends, replay, torn-line tolerance."""

import dataclasses
import json

import pytest

from repro.durable import append_record
from repro.errors import CacheCorruption, ConfigError
from repro.parallel import SweepJob
from repro.supervise import (
    DONE,
    PENDING,
    QUARANTINED,
    RETRYING,
    RUNNING,
    RUN_SCHEMA,
    RunManifest,
    result_digest,
)


@dataclasses.dataclass(frozen=True)
class SpecConfig:
    name: str
    depth: int = 2


def _jobs(n=3, spec=None):
    return [SweepJob("scenario", "t", s, dict(spec or {})) for s in range(n)]


def _manifest(tmp_path, jobs=None, mode="off"):
    m = RunManifest(tmp_path / "manifest.jsonl")
    m.write_header("run-1", jobs if jobs is not None else _jobs(), mode)
    return m


class TestHeaderAndReplay:
    def test_round_trip(self, tmp_path):
        m = _manifest(tmp_path, mode="record")
        state = m.replay()
        assert state.run_id == "run-1"
        assert state.invariant_mode == "record"
        assert state.n_jobs == 3
        assert [j.seed for j in state.jobs] == [0, 1, 2]
        assert state.counts()[PENDING] == 3

    def test_jobs_with_dataclass_specs_rebuild(self, tmp_path):
        jobs = [
            SweepJob("scenario", "t", 0, {"cfg": SpecConfig("a", depth=5)})
        ]
        m = _manifest(tmp_path, jobs=jobs)
        [job] = m.replay().jobs
        assert job.spec["cfg"] == SpecConfig("a", depth=5)

    def test_uncacheable_spec_stored_as_null(self, tmp_path):
        jobs = [SweepJob("scenario", "t", 0, {"fn": lambda: 1})]
        m = _manifest(tmp_path, jobs=jobs)
        assert m.replay().jobs == [None]

    def test_existing_manifest_refuses_fresh_header(self, tmp_path):
        m = _manifest(tmp_path)
        with pytest.raises(ConfigError, match="already exists"):
            m.write_header("run-1", _jobs(), "off")

    def test_missing_manifest_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunManifest(tmp_path / "nope.jsonl").replay()


class TestStateMachine:
    def test_done_record_carries_metrics_and_digest(self, tmp_path):
        m = _manifest(tmp_path)
        metrics = {"total_mean": 123.456, "requests": 10.0}
        m.record_running(0, 1, pid=42)
        digest = m.record_done(0, 1, metrics)
        assert digest == result_digest(metrics)
        cell = m.replay().cells[0]
        assert cell.state == DONE
        assert cell.metrics == metrics
        assert cell.digest == digest
        assert not cell.tainted

    def test_retry_then_quarantine_folding(self, tmp_path):
        m = _manifest(tmp_path)
        m.record_running(1, 1)
        m.record_failure(1, 1, "RuntimeError: boom\ntrace", final=False)
        m.record_running(1, 2)
        m.record_failure(
            1, 2, "CellTimeout: stalled", error_code="cell-timeout", final=True
        )
        cell = m.replay().cells[1]
        assert cell.state == QUARANTINED
        assert cell.attempts == 2
        assert cell.error == "CellTimeout: stalled"
        assert cell.error_code == "cell-timeout"

    def test_intermediate_states_replay_as_is(self, tmp_path):
        m = _manifest(tmp_path)
        m.record_running(0, 1)
        m.record_failure(2, 1, "x", final=False)
        state = m.replay()
        assert state.cells[0].state == RUNNING
        assert state.cells[2].state == RETRYING
        counts = state.counts()
        assert counts[RUNNING] == 1 and counts[RETRYING] == 1
        assert counts[PENDING] == 1

    def test_done_after_retry_clears_error(self, tmp_path):
        m = _manifest(tmp_path)
        m.record_failure(0, 1, "boom", final=False)
        m.record_done(0, 2, {"x": 1.0})
        cell = m.replay().cells[0]
        assert cell.state == DONE and cell.error is None

    def test_tainted_done_record(self, tmp_path):
        m = _manifest(tmp_path)
        violations = [{"guard": "resex.reso_accounting", "ts_ns": 5}]
        m.record_done(0, 1, {"x": 1.0}, tainted=True, violations=violations)
        cell = m.replay().cells[0]
        assert cell.tainted
        assert cell.violations == violations


class TestCrashTolerance:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        m = _manifest(tmp_path)
        m.record_done(0, 1, {"x": 1.0})
        with open(m.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "state", "index": 1, "att')  # SIGKILL here
        state = m.replay()
        assert state.skipped_lines == 1
        assert state.cells[0].state == DONE
        assert 1 not in state.cells  # the torn record never happened

    def test_mid_file_damage_is_corruption(self, tmp_path):
        m = _manifest(tmp_path)
        m.record_done(0, 1, {"x": 1.0})
        lines = m.path.read_text().splitlines()
        lines[1] = lines[1][:10]  # damage an interior record
        m.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheCorruption):
            m.replay()

    def test_wrong_schema_is_corruption(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            json.dumps({"type": "run", "schema": "other/9", "jobs": 0}) + "\n"
        )
        with pytest.raises(CacheCorruption, match="schema"):
            RunManifest(path).replay()

    def test_old_schema_is_refused_naming_both(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        header = {"type": "run", "schema": "repro-run/1", "run_id": "r",
                  "version": "1.0", "invariant_mode": "off", "jobs": 0}
        path.write_text(json.dumps(header, sort_keys=True) + "\n")
        with pytest.raises(CacheCorruption, match="repro-run/2.*repro-run/1"):
            RunManifest(path).replay()

    def test_changed_metric_names_its_line(self, tmp_path):
        """A done record edited after it was written — even one that
        still parses — is refused, not served to a resume."""
        m = _manifest(tmp_path)
        m.record_done(0, 1, {"total_mean": 123.5})
        m.record_done(1, 1, {"total_mean": 7.0})
        text = m.path.read_text()
        assert text.count("123.5") == 1
        m.path.write_text(text.replace("123.5", "923.5"))
        with pytest.raises(CacheCorruption, match="line 5: "):
            m.replay()

    def test_unknown_record_types_are_ignored(self, tmp_path):
        m = _manifest(tmp_path)
        append_record(m.path, RUN_SCHEMA, {"type": "note", "text": "future"})
        m.record_done(0, 1, {"x": 1.0})
        assert m.replay().cells[0].state == DONE


class TestDigest:
    def test_digest_is_order_insensitive_and_value_exact(self):
        a = result_digest({"x": 1.5, "y": float("inf")})
        b = result_digest({"y": float("inf"), "x": 1.5})
        assert a == b
        assert a != result_digest({"x": 1.5000000001, "y": float("inf")})
