"""Profiling harness for scenario, cluster and shard runs.

Answers "where does the wall clock go?" for any run the repo can
launch, without external dependencies: :func:`profile_call` wraps a
callable in :mod:`cProfile` (and optionally :mod:`tracemalloc`) and
reduces the raw stats three ways:

* **Buckets** — every profiled function is attributed to one runtime
  layer by the ``repro`` package its module lives in: ``kernel`` (the
  DES engine, :mod:`repro.sim`), ``mailbox`` (the cross-shard
  :class:`~repro.sim.shard.Mailbox`), ``barrier`` (the rest of the
  shard runtime: barrier loop, wire frames, checkpoints), ``fabric``
  (the hardware and IB models, ``hw``/``ib``), ``xen`` (credit
  scheduler and hypervisor), ``resex`` (the ResEx market and IBMon),
  ``apps`` (BenchEx, finance and workload traces), ``runtime`` (every
  other ``repro`` module: scenario builders, faults, service,
  telemetry, sweep and CLI plumbing) and ``other`` (stdlib and
  third-party frames).  Bucket seconds are *self* time, so the
  buckets partition the profiled total exactly.
* **Hot spots** — a JSON-ready table of the top functions by
  cumulative time, with self time and call counts.
* **Collapsed stacks** — ``caller;...;leaf self_microseconds`` lines
  in the flamegraph.pl / speedscope "collapsed" format, rebuilt from
  the profiler's call graph (one line per observed caller->callee
  chain, heaviest chains first).

The deterministic profiler only sees the calling process: a forked
shard run profiles the parent's barrier loop, not the workers.
Profile ``backend="inline"`` (or serial) runs to see worker-side
costs — the execution is bit-identical, so the hot spots transfer.
"""

from __future__ import annotations

import cProfile
import inspect
import io
import pstats
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BUCKETS",
    "ProfileReport",
    "bucket_of",
    "profile_call",
    "write_collapsed",
]

#: The runtime layers, in reporting order.
BUCKETS = (
    "kernel", "mailbox", "barrier", "fabric", "xen", "resex", "apps",
    "runtime", "other",
)

#: Bucket of each top-level ``repro`` package; a package not listed
#: here drives the model rather than being part of it (``runtime``).
_PACKAGE_BUCKETS = {
    "sim": "kernel",
    "hw": "fabric",
    "ib": "fabric",
    "xen": "xen",
    "resex": "resex",
    "ibmon": "resex",
    "benchex": "apps",
    "finance": "apps",
    "workloads": "apps",
}
#: The shard runtime lives inside ``repro.sim`` but is not the kernel.
_SHARD_MODULES = frozenset(
    ("sim/shard.py", "sim/shard_types.py", "sim/frames.py", "sim/checkpoint.py")
)


def _mailbox_line_range() -> Tuple[int, int]:
    """Source line span of the Mailbox class, resolved lazily so the
    classifier tracks the code instead of a hand-maintained list."""
    from repro.sim.shard import Mailbox

    lines, start = inspect.getsourcelines(Mailbox)
    return start, start + len(lines)


class _Classifier:
    """Maps one profiled ``(filename, lineno, funcname)`` to a bucket."""

    def __init__(self) -> None:
        self._mailbox_span: Optional[Tuple[int, int]] = None

    def bucket(self, filename: str, lineno: int) -> str:
        path = filename.replace("\\", "/")
        if "/repro/" not in path:
            return "other"
        module = path.rsplit("/repro/", 1)[1]
        if module == "sim/shard.py":
            if self._mailbox_span is None:
                self._mailbox_span = _mailbox_line_range()
            lo, hi = self._mailbox_span
            return "mailbox" if lo <= lineno < hi else "barrier"
        if module in _SHARD_MODULES:
            return "barrier"
        return _PACKAGE_BUCKETS.get(module.split("/", 1)[0], "runtime")


_classifier = _Classifier()


def bucket_of(filename: str, lineno: int = 0) -> str:
    """The runtime-layer bucket for a source location."""
    return _classifier.bucket(filename, lineno)


def _label(func: Tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if filename == "~":  # C-level frames in pstats
        return name.strip("<>")
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        path = "repro/" + path.split("/repro/", 1)[1]
    else:
        path = path.rsplit("/", 1)[-1]
    return f"{path}:{lineno}:{name}"


@dataclass
class ProfileReport:
    """One profiled run, reduced for reporting."""

    wall_s: float
    profiled_s: float
    buckets: Dict[str, float]
    hotspots: List[Dict[str, Any]]
    collapsed: List[str] = field(default_factory=list)
    memory_peak_kb: Optional[float] = None
    memory_top: List[Dict[str, Any]] = field(default_factory=list)

    def bucket_fractions(self) -> Dict[str, float]:
        total = sum(self.buckets.values()) or 1.0
        return {k: v / total for k, v in self.buckets.items()}

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "wall_s": round(self.wall_s, 4),
            "profiled_s": round(self.profiled_s, 4),
            "buckets_s": {k: round(v, 4) for k, v in self.buckets.items()},
            "buckets_frac": {
                k: round(v, 4) for k, v in self.bucket_fractions().items()
            },
            "hotspots": self.hotspots,
        }
        if self.memory_peak_kb is not None:
            doc["memory_peak_kb"] = round(self.memory_peak_kb, 1)
            doc["memory_top"] = self.memory_top
        return doc

    def render(self) -> str:
        out = io.StringIO()
        out.write(
            f"wall {self.wall_s:.3f}s, profiled self-time "
            f"{self.profiled_s:.3f}s\n\nby layer:\n"
        )
        fracs = self.bucket_fractions()
        for name in BUCKETS:
            if name in self.buckets:
                out.write(
                    f"  {name:8s} {self.buckets[name]:8.3f}s "
                    f"{100 * fracs[name]:5.1f}%\n"
                )
        out.write("\nhot spots (by cumulative time):\n")
        for h in self.hotspots[:15]:
            out.write(
                f"  {h['cum_s']:7.3f}s cum {h['self_s']:7.3f}s self "
                f"{h['calls']:>9d}x  [{h['bucket']}] {h['func']}\n"
            )
        if self.memory_peak_kb is not None:
            out.write(f"\npeak traced memory: {self.memory_peak_kb:.0f} kB\n")
            for m in self.memory_top[:10]:
                out.write(f"  {m['kb']:8.1f} kB  {m['site']}\n")
        return out.getvalue()


def _collapsed_lines(stats: pstats.Stats, limit: int = 2000) -> List[str]:
    """Two-frame collapsed stacks from the profiler's caller table.

    cProfile records (caller -> callee, self time) pairs, not full
    stacks, so each line is a two-deep chain: enough for flamegraph
    tools to show which callers a hot leaf's time splits across.
    Roots (no recorded caller) emit a single-frame line.
    """
    lines: List[Tuple[float, str]] = []
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        leaf = _label(func)
        if not callers:
            if tt > 0:
                lines.append((tt, leaf))
            continue
        total_caller_time = sum(c[3] for c in callers.values()) or 1.0
        for caller, (_ccc, _cnc, _ctt, cct) in callers.items():
            share = tt * (cct / total_caller_time)
            if share <= 0:
                continue
            lines.append((share, f"{_label(caller)};{leaf}"))
    lines.sort(key=lambda pair: -pair[0])
    return [
        f"{stack} {max(1, int(seconds * 1e6))}"
        for seconds, stack in lines[:limit]
    ]


def profile_call(
    fn: Callable[[], Any],
    *,
    top: int = 25,
    memory: bool = False,
) -> Tuple[Any, ProfileReport]:
    """Run ``fn()`` under the profiler and reduce the result.

    Returns ``(fn's return value, ProfileReport)``.  With
    ``memory=True`` the run also executes under :mod:`tracemalloc`
    (noticeably slower) and the report carries the peak traced size
    plus the top allocation sites.
    """
    profiler = cProfile.Profile()
    if memory:
        tracemalloc.start(10)
    wall0 = time.perf_counter()
    try:
        result = profiler.runcall(fn)
    finally:
        wall = time.perf_counter() - wall0
        if memory:
            snapshot = tracemalloc.take_snapshot()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    stats = pstats.Stats(profiler)
    buckets: Dict[str, float] = {name: 0.0 for name in BUCKETS}
    rows: List[Tuple[float, float, int, str, str]] = []
    for func, (_cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, lineno, _name = func
        bucket = (
            "other" if filename == "~" else bucket_of(filename, lineno)
        )
        buckets[bucket] += tt
        rows.append((ct, tt, nc, bucket, _label(func)))
    rows.sort(key=lambda row: -row[0])

    report = ProfileReport(
        wall_s=wall,
        profiled_s=sum(buckets.values()),
        buckets=buckets,
        hotspots=[
            {
                "func": label,
                "bucket": bucket,
                "cum_s": round(ct, 4),
                "self_s": round(tt, 4),
                "calls": nc,
            }
            for ct, tt, nc, bucket, label in rows[:top]
        ],
        collapsed=_collapsed_lines(stats),
    )
    if memory:
        report.memory_peak_kb = peak / 1024.0
        report.memory_top = [
            {
                "kb": round(stat.size / 1024.0, 1),
                "site": str(stat.traceback[0]),
            }
            for stat in snapshot.statistics("lineno")[:top]
        ]
    return result, report


def write_collapsed(report: ProfileReport, path: str) -> None:
    """Write the collapsed-stack lines for flamegraph.pl/speedscope."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.collapsed) + "\n")
