"""A/B the benchmark of record (``perfbench/``) across two git revisions.

Usage, from inside a clean checkout::

    python tools/ab.py BASE [--workload W ...] [--pairs N] [--seconds S]
                            [--control]

``BASE`` is any git revision; ``HEAD`` gives an A/A run.  BASE and
``HEAD`` are checked out as sibling ``git worktree``s in one temporary
directory, so both sit at the same path depth (where a checkout lives
on disk moves its timings by several percent).  Each side's own
``perfbench/run.py`` then runs in a fresh process, in pairs: both runs
of a pair get the same seed, and the side that runs first alternates
from pair to pair so that drift in the host's speed hits both sides
alike.  Workloads, end-to-end metrics, their bounds and the default
run length come from ``HEAD``'s ``BENCHMARK.json``.

For each workload and metric the table gives both sides' median and
interquartile range, the pairs ``HEAD`` won and the median of the
per-pair head/base ratios.  The verdict is "faster" or "slower" only
when one side wins at least nine tenths of the pairs (ties count for
neither) and the medians differ by more than base's IQR; it is
"unresolved" when base's IQR is wider than the metric's bound, and
"no change" otherwise.

``--control`` adds an A/A control to the same session: a third
worktree of ``HEAD`` runs in every round on the round's seed (rounds
alternate base-head-ctrl and ctrl-head-base, so both base/head and
head/ctrl swap order each round).  Beside each verdict the table then
gives the median per-pair ctrl/head ratio and the session's noise: the
larger distance from 1 of that ratio's first and third quartiles.  A
verdict whose own median ratio is no farther from 1 than the noise is
marked "within A/A noise".  The control decides nothing: verdicts and
the gate are computed as without it, except that a control run that
is incorrect or failed operations fails the gate like any other run.

Exit status: 0 when every run is correct with no failed operation and
no median of ``HEAD`` is worse than base's by more than the bound
(for a higher-is-better metric, below base / (1 + bound)); 1 when one
is; 2 when the comparison could not be made (dirty working tree,
unknown revision, a run that crashed).  The worktrees are removed in
every case.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

#: Both sides' worktree names: equal length, so equal paths bar one letter.
SIDES = ("base", "head")
#: The A/A control's worktree name (a second checkout of ``HEAD``).
CONTROL = "ctrl"


class AbError(Exception):
    """The comparison could not be made."""


def git(repo, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise AbError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


@contextlib.contextmanager
def worktrees(repo, revs):
    """Check out ``{side: commit}`` as sibling worktrees; remove them after."""
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        for side, rev in revs.items():
            git(repo, "worktree", "add", "--quiet", "--detach", str(tmp / side), rev)
        yield {side: tmp / side for side in revs}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        git(repo, "worktree", "prune")


def run_once(command, tree, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; returns its result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AbError(
            f"{tree.name}: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def run_pairs(command, trees, workloads, pairs: int, seconds: float, seed: int,
              log) -> dict:
    """``{workload: [{"seed", "base", "head"[, "ctrl"]}, ...]}``, one entry
    per pair; ``ctrl`` when ``trees`` holds the control."""
    sides = [*SIDES, CONTROL] if CONTROL in trees else list(SIDES)
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            pair = {"seed": seed + i}
            for side in order:
                pair[side] = doc = run_once(
                    command, trees[side], workload, seed + i, seconds
                )
                values = {k: round(v["value"], 4) for k, v in doc["metrics"].items()}
                log(f"{workload} pair {i + 1}/{pairs} seed {seed + i} {side}: {values}")
            runs[workload].append(pair)
    return runs


def iqr(xs) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def compare(base, head, better: str, bound: float) -> dict:
    """Verdict and gate for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    lost = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    mb, mh, spread = statistics.median(base), statistics.median(head), iqr(base)
    need = 0.9 * len(base)
    if abs(mh - mb) > spread and won >= need:
        verdict = "faster"
    elif abs(mh - mb) > spread and lost >= need:
        verdict = "slower"
    elif spread > bound * abs(mb):
        verdict = "unresolved"
    else:
        verdict = "no change"
    limit = mb / (1 + bound) if better == "higher" else mb * (1 + bound)
    return {
        "base_median": mb, "base_iqr": spread,
        "head_median": mh, "head_iqr": iqr(head),
        "won": won, "pairs": len(base),
        "ratio": statistics.median(h / b for b, h in zip(base, head)),
        "verdict": verdict,
        "regressed": mh < limit if better == "higher" else mh > limit,
    }


def control(head, ctrl) -> dict:
    """The A/A control of one metric: the median per-pair ctrl/head
    ratio and the noise, the larger distance from 1 of its quartiles."""
    ratios = [c / h for h, c in zip(head, ctrl)]
    q1 = q3 = ratios[0]
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"ratio": statistics.median(ratios),
            "noise": max(abs(q1 - 1), abs(q3 - 1))}


def report(runs: dict, metrics) -> tuple:
    """Table rows and gate failures for every workload and metric."""
    rows, failures = [], []
    for workload, pairs in runs.items():
        with_control = all(CONTROL in pair for pair in pairs)
        for pair in pairs:
            for side in (*SIDES, CONTROL) if with_control else SIDES:
                doc = pair[side]
                if doc["correct"] is not True or doc["failed"] > 0:
                    failures.append(
                        f"{workload} seed {pair['seed']} {side}: correct "
                        f"{doc['correct']}, failed {doc['failed']}"
                    )
        for m in metrics:
            name = m["name"]
            base = [p["base"]["metrics"][name]["value"] for p in pairs]
            head = [p["head"]["metrics"][name]["value"] for p in pairs]
            c = compare(base, head, m["better"], m["bound"])
            if with_control:
                aa = c["control"] = control(
                    head, [p[CONTROL]["metrics"][name]["value"] for p in pairs]
                )
                c["within_noise"] = abs(c["ratio"] - 1) <= aa["noise"]
            rows.append((workload, name, c))
            if c["regressed"]:
                failures.append(
                    f"{workload} {name}: head median {c['head_median']:.4g} is "
                    f"worse than base median {c['base_median']:.4g} by more "
                    f"than the {m['bound']:g} bound"
                )
    return rows, failures


def render(rows) -> str:
    with_control = any("control" in c for _, _, c in rows)
    aa_head = f" {'A/A ratio (noise)':>17s}" if with_control else ""
    lines = [f"{'workload':9s} {'metric':10s} {'base median (IQR)':>22s} "
             f"{'head median (IQR)':>22s} {'won':>6s} {'ratio':>6s}{aa_head}"
             "  verdict"]
    for workload, name, c in rows:
        aa, verdict = "", c["verdict"]
        if with_control:
            aa = f" {c['control']['ratio']:9.3f} ({c['control']['noise']:5.3f})"
            if c["within_noise"]:
                verdict += " (within A/A noise)"
        lines.append(
            f"{workload:9s} {name:10s} "
            f"{c['base_median']:>12.4g} ({c['base_iqr']:7.3g}) "
            f"{c['head_median']:>12.4g} ({c['head_iqr']:7.3g}) "
            f"{c['won']:>3d}/{c['pairs']:<2d} {c['ratio']:6.3f}{aa}  {verdict}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare HEAD against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: the benchmark's)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--control", action="store_true",
                        help="also run HEAD against itself in every round and "
                        "print that A/A ratio and noise beside each verdict")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
        if git(repo, "status", "--porcelain"):
            raise AbError(
                "the working tree has uncommitted changes, which neither "
                "side would run; commit or stash them first"
            )
        revs = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
                for side, rev in zip(SIDES, (args.base, "HEAD"))}
        if args.control:
            revs[CONTROL] = revs["head"]
        log(f"base {revs['base']}  head {revs['head']}")
        with worktrees(repo, revs) as trees:
            spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
            known = [w["name"] for w in spec["workloads"]]
            workloads = args.workload or known
            unknown = sorted(set(workloads) - set(known))
            if unknown:
                raise AbError(f"unknown workload(s) {unknown}; have {known}")
            seconds = args.seconds or spec["run_seconds"]
            runs = run_pairs(spec["command"], trees, workloads, args.pairs,
                             seconds, args.seed, log)
    except AbError as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 2
    rows, failures = report(runs, spec["end_to_end"])
    print(render(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
