"""End-to-end benchmark of the ResEx reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``platform``, ``sweep``, ``cluster``,
``sharded`` and ``served``.  A run warms up and times cold set-up, then
measures operations for ``--seconds`` and checks their outputs.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``ops_per_s`` -- operations (simulation runs, or requests of the
  served workload) completed per second of the measured window;
* ``setup_s`` -- median of three cold set-ups: a fresh interpreter
  importing the command's modules and building its first world, or for
  ``served`` starting ``repro serve`` until it answers a handshake.

Throughput over the whole window is the timed metric because on a
shared host the machine's speed drifts in spells of tens of seconds:
a spell covering part of a run moves a median or a best-of by the full
size of the drift, but the window's mean only by the covered share.

With ``--trace 1`` the same operations run under per-layer tracing
(``layers.py``) and the metrics are per operation: CPU self time of each
layer (``<layer>_self_ms``), the benchmark process's time off the CPU
waiting on workers, pool or gateway (``wait_ms``), the median operation
time under tracing (``traced_p50_ms``) and the program's work counters
(``<counter>_per_op``).

Only the checkout is read or written.  Without the program's sources
beside it (``src/repro``) the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import sys


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    package_dir = os.path.join(src_dir, "repro")

    # Byte-compile up front so no timed cold start pays for it.
    compileall.compile_dir(package_dir, quiet=1)

    from layers import COUNTS, LAYERS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, src_dir)

    tracer = None
    if args.trace:
        tracer = Tracer(package_dir)
        tracer.arm()
    try:
        out = workload.measure(args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.close()

    n = out.attempted
    if tracer is None:
        metrics = {
            "ops_per_s": _metric(n / out.window_s, "1/s"),
            "setup_s": _metric(statistics.median(out.setup_s), "s"),
        }
    else:
        metrics = {
            f"{layer}_self_ms": _metric(tracer.layers[layer] / n * 1e3, "ms")
            for layer in LAYERS
        }
        metrics["wait_ms"] = _metric(tracer.wait_s / n * 1e3, "ms")
        metrics["traced_p50_ms"] = _metric(
            statistics.median(out.latencies_s) * 1e3, "ms"
        )
        for name in COUNTS:
            metrics[f"{name}_per_op"] = _metric(tracer.counts[name] / n, "count")
    print(json.dumps({
        "correct": out.correct,
        "attempted": n,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
