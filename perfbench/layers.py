"""Per-layer self time and work counts for a traced benchmark run.

A traced run (``--trace 1``) profiles every process that does the
workload's work -- the benchmark process itself, forked shard workers,
sweep-pool workers and the service gateway -- with :mod:`cProfile` on a
CPU-time clock, so time a process spends blocked on another one is not
counted as busy.  Each profile is reduced to self time per layer:

* a function in the ``repro`` package belongs to the layer of its
  module (:func:`layer_of`);
* time in library code (the standard library, numpy, builtins) is
  charged to the ``repro`` code that called it, following the profiler's
  caller graph upward, and to ``python`` when no ``repro`` code is on
  the path (the asyncio event loop, process start-up, the benchmark's
  own loop).

Work counts come from the program's own counters: the DES event count
of every :class:`~repro.sim.core.Environment` and the solver counters
of every :class:`~repro.hw.fabric.FluidFabric` created while tracing.

Forked workers report over one pipe the benchmark process creates
before forking: each worker writes a single JSON line (well under
``PIPE_BUF``, so concurrent writes never interleave) when its work ends,
and the benchmark drains the pipe after every operation, once the
operation's workers have exited.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import signal
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Layers in reporting order.  ``runtime`` is whatever drives the model
#: for the user: the scenario and cluster builders, the sweep pool, the
#: shard barrier and mailbox, or the service gateway.
LAYERS = ("kernel", "xen", "fabric", "resex", "apps", "runtime", "python")

#: Work counters summed over every process of a traced run: the first
#: four from :class:`Tally`, barriers and messages from the shard
#: statistics of the cluster workloads' results.
COUNTS = ("events", "solves", "memo_lookups", "memo_hits", "barriers", "messages")

_SHARD_RUNTIME = frozenset(
    ("sim/shard.py", "sim/shard_types.py", "sim/frames.py", "sim/checkpoint.py")
)
_LAYER_OF_PACKAGE = {
    "sim": "kernel",
    "xen": "xen",
    "hw": "fabric",
    "ib": "fabric",
    "resex": "resex",
    "ibmon": "resex",
    "benchex": "apps",
    "finance": "apps",
    "workloads": "apps",
}


def layer_of(relpath: str) -> str:
    """Layer of a module given its path inside the ``repro`` package."""
    if relpath in _SHARD_RUNTIME:
        return "runtime"
    if relpath == "service/world.py":
        # The served market's tenants: admission, Reso trading and
        # order flow -- the service-side counterpart of BenchEx.
        return "apps"
    return _LAYER_OF_PACKAGE.get(relpath.split("/", 1)[0], "runtime")


def _classifier(package_dir: str) -> Callable[[Tuple[str, int, str]], str]:
    """``func -> layer`` for ``repro`` code, ``""`` for anything else."""
    prefix = os.path.join(os.path.realpath(package_dir), "")
    cache: Dict[str, str] = {}

    def classify(func: Tuple[str, int, str]) -> str:
        filename = func[0]
        if filename not in cache:
            path = os.path.realpath(filename) if filename != "~" else ""
            cache[filename] = (
                layer_of(path[len(prefix):].replace(os.sep, "/"))
                if path.startswith(prefix)
                else ""
            )
        return cache[filename]

    return classify


def layer_times(stats: Dict[Any, tuple], package_dir: str) -> Dict[str, float]:
    """Reduce a cProfile stats table to seconds of self time per layer."""
    classify = _classifier(package_dir)
    shares: Dict[Any, Dict[str, float]] = {}

    def share(func) -> Dict[str, float]:
        """How time spent in ``func`` splits across layers: by layer for
        ``repro`` code, else across its callers by cumulative time."""
        layer = classify(func)
        if layer:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {"python": 1.0}  # the answer for roots and cycles
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if total > 0:
            mixed: Dict[str, float] = defaultdict(float)
            for caller, edge in callers.items():
                for name, frac in share(caller).items():
                    mixed[name] += frac * edge[3] / total
            shares[func] = dict(mixed)
        return shares[func]

    out = {name: 0.0 for name in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = classify(func)
        if layer:
            out[layer] += tt
            continue
        # cProfile keeps a library function's self time per caller, so
        # each caller is charged exactly what it spent there.
        spent = sum(edge[2] for edge in callers.values())
        if spent <= 0:
            for name, frac in share(func).items():
                out[name] += tt * frac
            continue
        for caller, edge in callers.items():
            for name, frac in share(caller).items():
                out[name] += tt * frac * edge[2] / spent
    return out


class Tally:
    """Work counters of every simulation and fabric built after :meth:`arm`.

    One tally per process: :meth:`arm` wraps the two constructors.
    """

    def __init__(self) -> None:
        self.envs: List[Any] = []
        self.fabrics: List[Any] = []

    def arm(self) -> None:
        from repro.hw.fabric import FluidFabric
        from repro.sim.core import Environment

        _register_instances(Environment, self.envs)
        _register_instances(FluidFabric, self.fabrics)

    def reset(self) -> None:
        self.envs.clear()
        self.fabrics.clear()

    def totals(self) -> Dict[str, float]:
        out = {"events": float(sum(env.events_processed for env in self.envs))}
        out.update(solves=0.0, memo_lookups=0.0, memo_hits=0.0)
        for fabric in self.fabrics:
            stats = fabric.solver_stats
            out["solves"] += stats["global_solves"] + stats["component_solves"]
            out["memo_lookups"] += getattr(fabric, "_memo_lookups", 0)
            out["memo_hits"] += getattr(fabric, "_memo_hits", 0)
        return out


def _register_instances(cls: type, registry: List[Any]) -> None:
    init = cls.__init__

    @functools.wraps(init)
    def init_and_register(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        registry.append(obj)

    cls.__init__ = init_and_register


def _cpu_profiler() -> cProfile.Profile:
    return cProfile.Profile(time.process_time)


def _report(
    profiler: cProfile.Profile, counts: Dict[str, float], package_dir: str
) -> Dict[str, Any]:
    profiler.create_stats()
    return {"layers": layer_times(profiler.stats, package_dir), "counts": counts}


class Tracer:
    """Layer times and counts of one traced benchmark run, summed over
    the benchmark process and every worker it forks."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = package_dir
        self.layers = {name: 0.0 for name in LAYERS}
        self.counts = {name: 0.0 for name in COUNTS}
        #: Wall time the benchmark process spent off the CPU while
        #: tracing: waiting on workers, the pool or the gateway.
        self.wait_s = 0.0
        self._clocks = (0.0, 0.0)
        self.tally = Tally()
        self._profiler = _cpu_profiler()
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        self._pending = b""

    def arm(self) -> None:
        """Count work, and have forked workers report, from now on."""
        self.tally.arm()
        self._wrap_worker("repro.sim.shard", "_shard_worker")
        self._wrap_worker("repro.parallel.engine", "_execute_job")

    def start(self) -> None:
        """Trace from here: called before each measured operation."""
        self.tally.reset()
        self._clocks = (time.perf_counter(), time.process_time())
        self._profiler.enable()

    def stop(self) -> None:
        """Stop tracing; take the operation's counts and the reports of
        its workers, which have exited by now."""
        self._profiler.disable()
        wall0, cpu0 = self._clocks
        self.wait_s += (time.perf_counter() - wall0) - (time.process_time() - cpu0)
        self.add_counts(self.tally.totals())
        self.tally.reset()
        self._drain()

    def close(self) -> None:
        """Fold in the benchmark process's own profile; close the pipe."""
        self.add_report(_report(self._profiler, {}, self.package_dir))
        os.close(self._write_fd)
        os.close(self._read_fd)

    def add_counts(self, counts: Dict[str, float]) -> None:
        for name, value in counts.items():
            self.counts[name] += value

    def add_report(self, report: Dict[str, Any]) -> None:
        for name, seconds in report["layers"].items():
            self.layers[name] += seconds
        self.add_counts(report["counts"])

    def _drain(self) -> None:
        while True:
            try:
                chunk = os.read(self._read_fd, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._pending += chunk
        *lines, self._pending = self._pending.split(b"\n")
        for line in lines:
            self.add_report(json.loads(line))

    def _wrap_worker(self, module_name: str, attr: str) -> None:
        """Profile every call of a worker entry point in the worker.

        ``functools.wraps`` keeps the entry point's module and name, so
        the sweep pool still pickles it by reference and finds this
        wrapper in the forked worker.
        """
        module = importlib.import_module(module_name)
        target = getattr(module, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            # The fork copied the parent's running profiler; stop it so
            # this worker's time is counted once, by its own profiler.
            tracer._profiler.disable()
            tracer.tally.reset()
            profiler = _cpu_profiler()
            profiler.enable()
            try:
                return target(*args, **kwargs)
            finally:
                profiler.disable()
                report = _report(profiler, tracer.tally.totals(), tracer.package_dir)
                os.write(tracer._write_fd, json.dumps(report).encode() + b"\n")
                tracer.tally.reset()

        setattr(module, attr, traced)


def traced_main(argv: List[str], package_dir: str) -> Dict[str, Any]:
    """Run ``repro`` with ``argv`` in this process, tracing between
    SIGUSR1 and SIGUSR2; returns the report for that interval."""
    from repro.cli import main

    tally = Tally()
    tally.arm()
    profiler = _cpu_profiler()
    marks: Dict[str, Dict[str, float]] = {}

    def begin(_signum, _frame) -> None:
        marks["start"] = tally.totals()
        profiler.enable()

    def end(_signum, _frame) -> None:
        profiler.disable()
        marks["stop"] = tally.totals()

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, end)
    code = main(argv)
    if code:
        raise SystemExit(code)
    start, stop = marks.get("start", {}), marks.get("stop", {})
    counts = {name: value - start.get(name, 0.0) for name, value in stop.items()}
    return _report(profiler, counts, package_dir)
