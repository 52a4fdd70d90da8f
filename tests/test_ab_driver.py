"""Tests for ``tools/ab.py``, the A/B driver over ``perfbench/``.

The driver runs against a throwaway two-commit repository whose fake
``perfbench/run.py`` logs how it was called and prints a fixed result
line, so no real benchmark runs here.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

_FAKE_RUN = """\
import argparse, json, os, sys
REV, OPS = {rev!r}, {ops!r}
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
with open(os.environ["AB_FAKE_LOG"], "a") as log:
    log.write(json.dumps({{"rev": REV, "seed": a.seed, "cwd": os.getcwd()}}) + "\\n")
if os.environ.get("AB_FAKE_FAIL") == REV:
    sys.exit(3)
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0, "metrics": {{
    "ops_per_s": {{"value": OPS, "unit": "1/s"}},
    "setup_s": {{"value": 1.0, "unit": "s"}}}}}}))
"""

_BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"],
    "run_seconds": 15,
    "workloads": [{"name": "w1"}],
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ],
}


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        check=True, capture_output=True, text=True,
    ).stdout


def _commit(repo, rev, ops):
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUN.format(rev=rev, ops=ops))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", rev)


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    """``make(head_ops)``: a repo whose HEAD~1 reports 100 ops/s and whose
    HEAD reports ``head_ops``; returns the run log's path."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(_BENCHMARK))
    log = tmp_path / "runs.log"
    monkeypatch.chdir(repo)
    monkeypatch.setenv("AB_FAKE_LOG", str(log))
    monkeypatch.delenv("AB_FAKE_FAIL", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def make(head_ops=100.0):
        _commit(repo, "base", 100.0)
        _commit(repo, "head", head_ops)
        return log

    return make


def _runs(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def _worktrees():
    return _git(".", "worktree", "list").splitlines()


def test_pairs_alternate_share_a_seed_and_run_at_equal_depth(fake_repo):
    log = fake_repo()
    assert ab.main(["HEAD~1", "--pairs", "4", "--seconds", "1", "--seed", "5"]) == 0
    runs = _runs(log)
    assert len(runs) == 8
    pairs = [runs[i:i + 2] for i in range(0, 8, 2)]
    assert [p[0]["rev"] for p in pairs] == ["base", "head", "base", "head"]
    for i, (first, second) in enumerate(pairs):
        assert {first["rev"], second["rev"]} == {"base", "head"}
        assert first["seed"] == second["seed"] == str(5 + i)
    cwds = {run["rev"]: pathlib.Path(run["cwd"]) for run in runs}
    assert cwds["base"].parent == cwds["head"].parent
    assert len(cwds["base"].parts) == len(cwds["head"].parts)
    assert not cwds["base"].exists() and not cwds["head"].exists()
    assert len(_worktrees()) == 1


def test_worktrees_are_removed_when_a_run_fails(fake_repo, monkeypatch):
    log = fake_repo()
    monkeypatch.setenv("AB_FAKE_FAIL", "head")
    assert ab.main(["HEAD~1", "--pairs", "2", "--seconds", "1"]) == 2
    assert [run["rev"] for run in _runs(log)] == ["base", "head"]
    assert not pathlib.Path(_runs(log)[0]["cwd"]).exists()
    assert len(_worktrees()) == 1


def test_a_dirty_working_tree_is_refused(fake_repo):
    log = fake_repo()
    pathlib.Path("perfbench/run.py").write_text("# edited, not committed\n")
    assert ab.main(["HEAD~1", "--pairs", "1", "--seconds", "1"]) == 2
    assert not log.exists()
    assert len(_worktrees()) == 1


@pytest.mark.parametrize("head_ops, status", [(79.0, 1), (81.0, 0)])
def test_the_gate_fails_below_base_over_one_plus_bound(fake_repo, head_ops, status):
    fake_repo(head_ops)
    assert ab.main(["HEAD~1", "--pairs", "2", "--seconds", "1"]) == status


_BASE = [100.0 + i for i in range(10)]


def test_ten_of_ten_pairs_won_past_the_iqr_is_faster():
    c = ab.compare(_BASE, [b * 1.1 for b in _BASE], "higher", 0.25)
    assert (c["won"], c["verdict"], c["regressed"]) == (10, "faster", False)
    assert c["ratio"] == pytest.approx(1.1)


def test_eight_of_ten_pairs_won_is_no_change():
    head = [b * 1.1 for b in _BASE[:8]] + [b * 0.9 for b in _BASE[8:]]
    c = ab.compare(_BASE, head, "higher", 0.25)
    assert (c["won"], c["verdict"]) == (8, "no change")


def test_a_lower_is_better_metric_that_rises_is_slower():
    c = ab.compare(_BASE, [b * 1.3 for b in _BASE], "lower", 0.25)
    assert (c["won"], c["verdict"], c["regressed"]) == (0, "slower", True)


def test_spread_wider_than_the_bound_is_unresolved():
    base = [50.0, 150.0, 50.0, 150.0]
    c = ab.compare(base, list(base), "higher", 0.25)
    assert c["verdict"] == "unresolved"


def _doc(ops, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops}, "setup_s": {"value": 1.0}}}


def test_report_fails_an_incorrect_or_failed_run_and_a_regression():
    metrics = _BENCHMARK["end_to_end"]
    pairs = [{"seed": i, "base": _doc(100.0), "head": _doc(100.0)} for i in range(10)]
    assert ab.report({"w1": pairs}, metrics)[1] == []
    pairs[3]["head"] = _doc(100.0, correct=False)
    pairs[4]["base"] = _doc(100.0, failed=1)
    failures = ab.report({"w1": pairs}, metrics)[1]
    assert len(failures) == 2
    slow = [{"seed": i, "base": _doc(100.0), "head": _doc(79.0)} for i in range(10)]
    rows, failures = ab.report({"w1": slow}, metrics)
    assert [f.split(":")[0] for f in failures] == ["w1 ops_per_s"]
    assert rows[0][2]["ratio"] == pytest.approx(0.79)
