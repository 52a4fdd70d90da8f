"""Performance benchmarks for the simulator fast path (``repro bench``).

The headline scenarios and the microbenchmarks below are the workloads
the DES fast-path work is measured against.  Two consumers share them:

* ``repro bench`` — a dependency-free CLI runner that reports
  best-of-N ``time.process_time()`` per workload (the noise-resistant
  statistic: wall clock on a shared host varies by tens of percent
  run-to-run, the best-of process time is stable to a few percent) and
  writes ``BENCH_perf.json``;
* ``benchmarks/perf/`` — the pytest-benchmark suite CI runs as a
  regression smoke against ``benchmarks/perf/baseline.json``.

Every workload is a deterministic fixed-seed simulation, so the only
run-to-run variance is the host's, never the program's — which is also
why optimizing them is safe to verify against the byte-identical
golden fixtures (``tests/golden/``).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Pre-optimization reference times (seconds of process time, best of
#: three rounds of the pre-fast-path tree), frozen in the source when
#: the fast path landed.  ``repro bench`` divides each workload's
#: best-of-rounds process time by these constants to report
#: ``speedup_vs_pre``.  The harness never re-runs the old tree: there
#: are no interleaved pre/post rounds, so the ratio carries every
#: difference of host and session since the capture and is not a
#: measured speedup.
PRE_OPTIMIZATION_PROCESS_S: Dict[str, float] = {}  # populated below


# -- workloads ---------------------------------------------------------------

def headline_managed(sim_s: float = 0.3) -> Dict[str, Any]:
    """The paper's managed configuration: 2 MB interferer + IOShares.

    Same axes as the golden trace fixture (scaled to 0.3 sim-seconds),
    run untraced — the production fast path.
    """
    from repro.benchex import BenchExConfig
    from repro.experiments import run_scenario
    from repro.units import MiB

    result = run_scenario(
        "bench-headline",
        interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
        policy="ioshares",
        sim_s=sim_s,
        seed=7,
    )
    return {"sim_s": sim_s, "requests": result.breakdown.n}


def chaos_linkflap(sim_s: float = 1.0) -> Dict[str, Any]:
    """The fig9 link-flap resilience run (same axes as its golden)."""
    from repro.experiments import run_chaos_scenario

    chaos = run_chaos_scenario(
        "fig9", campaign="link-flap", sim_s=sim_s, seed=11
    )
    return {"sim_s": sim_s, "faults": len(chaos.report.impacts)}


def kernel_timeout_ping(n: int = 200_000) -> Dict[str, Any]:
    """Pure DES kernel dispatch: ``n`` timeout events, no payload.

    Isolates heap push/pop, event dispatch and process resume — the
    floor every simulated nanosecond pays.
    """
    from repro.sim import Environment

    def ping(env):
        timeout = env.timeout
        for _ in range(n):
            yield timeout(1)

    env = Environment()
    env.process(ping(env))
    env.run()
    return {"events": env._events_processed}


def fabric_churn(n: int = 4000) -> Dict[str, Any]:
    """Max-min reconvergence under continuous join/leave churn.

    Overlapping transfers across a 3-link topology keep the solver's
    incremental path and memo hot, the way scenario traffic does.
    """
    from repro.hw import FluidFabric
    from repro.sim import Environment
    from repro.units import GiB, KiB

    env = Environment()
    fabric = FluidFabric(env)
    links = [fabric.add_link(f"l{i}", float(GiB)) for i in range(3)]
    paths = [
        (links[0],),
        (links[1],),
        (links[2],),
        (links[0], links[1]),
        (links[1], links[2]),
        (links[0], links[2]),
    ]

    def submitter(env):
        for i in range(n):
            fabric.submit(
                list(paths[i % len(paths)]),
                16 * KiB + (i % 7) * KiB,
                f"t{i}",
            )
            yield env.timeout(5_000)

    env.process(submitter(env))
    env.run()
    return {"transfers": len(fabric.completions), "events": env._events_processed}


def telemetry_emit(n: int = 150_000) -> Dict[str, Any]:
    """Telemetry record construction + append, list and ring mode."""
    from repro.telemetry import TelemetryBus
    flat = TelemetryBus()
    for i in range(n):
        flat.instant("kernel", "e", i, lane="bench", seq=i)
    ring = TelemetryBus(ring_capacity=4096)
    for i in range(n):
        ring.counter("kernel", "queue_depth", i, float(i))
    return {"records": len(flat) + n, "retained_ring": len(ring)}


def sweep_replication(
    seeds: int = 16, jobs: int = 4, sim_s: float = 0.1
) -> Dict[str, Any]:
    """16-seed replication sweep: serial vs pooled vs warm cache.

    Measures the parallel experiment engine itself: the same
    ``replicate_scenario`` fan-out run serially, through a ``jobs``-wide
    process pool (cold cache), and again warm.  The parent's
    ``process_time`` cannot see child CPU, so the honest statistics for
    this workload are the wall-clock ratios in ``meta`` —
    ``parallel_speedup_wall`` (bounded by the host's core count, also
    recorded) and ``warm_over_cold`` (cache hits are file reads).
    The three runs must agree bit for bit (``identical``).
    """
    import os
    import tempfile

    from repro.experiments.multiseed import sweep_scenario

    seed_list = list(range(seeds))
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as cache_dir:
        wall0 = time.perf_counter()
        serial, _ = sweep_scenario(
            "bench-sweep", seed_list, jobs=1, sim_s=sim_s
        )
        serial_wall = time.perf_counter() - wall0

        wall0 = time.perf_counter()
        cold, cold_report = sweep_scenario(
            "bench-sweep", seed_list, jobs=jobs, cache=cache_dir, sim_s=sim_s
        )
        cold_wall = time.perf_counter() - wall0

        wall0 = time.perf_counter()
        warm, warm_report = sweep_scenario(
            "bench-sweep", seed_list, jobs=jobs, cache=cache_dir, sim_s=sim_s
        )
        warm_wall = time.perf_counter() - wall0

    return {
        "seeds": seeds,
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(cold_wall, 4),
        "parallel_speedup_wall": round(serial_wall / cold_wall, 3),
        "pool_utilization": round(cold_report.utilization, 3),
        "warm_wall_s": round(warm_wall, 4),
        "warm_over_cold": round(warm_wall / cold_wall, 4),
        "warm_cache_hits": warm_report.cached,
        "identical": serial.values == cold.values == warm.values,
    }


def invariants_record(sim_s: float = 0.2, rounds: int = 5) -> Dict[str, Any]:
    """Runtime invariant guards: record-mode overhead vs guards off.

    Runs the managed headline scenario with the invariant monitor off
    and again in ``record`` mode, interleaved A/B over ``rounds``
    rounds so host drift cancels.  The statistic that matters is
    ``record_overhead`` (best-of process-time ratio): the acceptance
    bar for the supervised runtime is <= 5% overhead with guards
    recording.  ``tainted`` must be False — a healthy run never trips
    a guard.
    """
    from repro.benchex import BenchExConfig
    from repro.experiments import run_scenario
    from repro.sim import invariants
    from repro.units import MiB

    def one(mode: Optional[str]) -> float:
        cpu0 = time.process_time()
        if mode is None:
            run_scenario(
                "bench-inv",
                interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
                policy="ioshares",
                sim_s=sim_s,
                seed=7,
            )
        else:
            with invariants.activate(mode) as mon:
                run_scenario(
                    "bench-inv",
                    interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
                    policy="ioshares",
                    sim_s=sim_s,
                    seed=7,
                )
            one.tainted = one.tainted or mon.tainted
        return time.process_time() - cpu0

    one.tainted = False
    off_runs, rec_runs = [], []
    for _ in range(max(rounds, 1)):
        off_runs.append(one(None))
        rec_runs.append(one("record"))
    best_off, best_rec = min(off_runs), min(rec_runs)
    return {
        "sim_s": sim_s,
        "off_process_s": round(best_off, 4),
        "record_process_s": round(best_rec, 4),
        "record_overhead": round(best_rec / best_off - 1.0, 4),
        "tainted": one.tainted,
    }


def cluster_scale(sim_s: float = 0.25) -> Dict[str, Any]:
    """The 256-host leaf-spine cluster scenario (ROADMAP item 1).

    16 racks x 16 hosts x 8 VMs (2048 VMs) with 2000 background flows,
    per-rack ResEx controllers and fabric-borne price federation.  The
    ``meta`` carries the tentpole's evidence: ``component_frac`` is the
    fraction of max-min reallocation solves that stayed inside their
    connected component (strictly local work), and ``max_component``
    bounds how much of the 2000-flow population any single solve ever
    touched.
    """
    from repro.experiments.cluster import run_cluster

    m = run_cluster("cluster_scale", seed=7, sim_s=sim_s).metrics()
    return {
        "sim_s": sim_s,
        "hosts": int(m["hosts"]),
        "vms": int(m["vms"]),
        "flows_completed": int(m["flows_completed"]),
        "flow_p99_us": round(m["flow_p99_us"], 1),
        "federation_syncs": int(m["federation_syncs"]),
        "component_frac": round(m["solver_component_frac"], 4),
        "max_component": int(m["solver_max_component"]),
    }


def cluster_scale_sharded(
    sim_s: float = 0.1, shards: int = 4, rounds: int = 5
) -> Dict[str, Any]:
    """Serial vs sharded A/B of the 256-host cluster (shard tentpole).

    Runs ``cluster_scale`` serially and partitioned across ``shards``
    forked workers along the rack plan (:mod:`repro.sim.shard`), and
    reports the honest statistics in ``meta``:

    * ``shard_speedup_wall`` — serial wall / sharded wall, best-of-
      ``rounds`` per arm after a short warmup, arms interleaved with
      alternating order so neither is systematically the "cold" run.
      On a host with fewer CPUs than shards this number is physically
      meaningless as a *speedup* (the workers time-slice one core), so
      it is reported as ``None`` with ``skipped_reason`` set; the raw
      walls are still recorded.
    * ``identical`` — the serial and sharded metric dicts compare
      equal, bit for bit (the differential suite's contract; a bench
      run that ever saw ``identical: false`` is reporting a kernel
      bug, not noise).
    * ``barriers`` vs ``windows`` — how much of the barrier schedule
      elision coalesced away (``max_stride`` is the largest single
      stride taken).
    """
    import os

    from repro.experiments.cluster import run_cluster

    def serial_arm():
        return run_cluster("cluster_scale", seed=7, sim_s=sim_s)

    def sharded_arm():
        return run_cluster(
            "cluster_scale", seed=7, sim_s=sim_s, shards=shards,
            backend="fork",
        )

    # Warm both arms (imports, allocator growth, fork machinery) so
    # neither measured round pays first-run costs.
    warm = min(sim_s / 5.0, 0.02)
    run_cluster("cluster_scale", seed=7, sim_s=warm)
    run_cluster(
        "cluster_scale", seed=7, sim_s=warm, shards=shards, backend="fork"
    )

    serial_walls: List[float] = []
    sharded_walls: List[float] = []
    serial_metrics: Dict[str, Any] = {}
    sharded_metrics: Dict[str, Any] = {}
    stats = None
    for r in range(max(1, rounds)):
        order = (
            [("serial", serial_arm), ("sharded", sharded_arm)]
            if r % 2 == 0
            else [("sharded", sharded_arm), ("serial", serial_arm)]
        )
        for name, arm in order:
            wall0 = time.perf_counter()
            result = arm()
            wall = time.perf_counter() - wall0
            if name == "serial":
                serial_walls.append(wall)
                serial_metrics = result.metrics()
            else:
                sharded_walls.append(wall)
                sharded_metrics = result.metrics()
                stats = result.shard_stats

    serial_wall = min(serial_walls)
    sharded_wall = min(sharded_walls)
    cpus = os.cpu_count() or 1
    if cpus >= shards:
        speedup: "float | None" = round(serial_wall / sharded_wall, 3)
        skipped_reason: "str | None" = None
    else:
        speedup = None
        skipped_reason = (
            f"host has {cpus} CPU(s) < {shards} shards; wall-clock "
            "speedup is not measurable (workers time-slice one core)"
        )

    meta: Dict[str, Any] = {
        "sim_s": sim_s,
        "shards": shards,
        "cpus": cpus,
        "rounds": max(1, rounds),
        "serial_wall_s": round(serial_wall, 4),
        "sharded_wall_s": round(sharded_wall, 4),
        "shard_speedup_wall": speedup,
        "barriers": stats.barriers if stats is not None else 0,
        "windows": stats.windows if stats is not None else 0,
        "max_stride": stats.max_stride if stats is not None else 1,
        "coalesce": True,
        "messages_exchanged": (
            stats.messages_exchanged if stats is not None else 0
        ),
        "identical": serial_metrics == sharded_metrics,
    }
    if skipped_reason is not None:
        meta["skipped_reason"] = skipped_reason
    return meta


def checkpoint_overhead(
    sim_s: float = 0.1, shards: int = 4, rounds: int = 5
) -> Dict[str, Any]:
    """Checkpointing cost A/B on the sharded 256-host cluster.

    Runs ``cluster_scale`` across ``shards`` forked workers twice per
    round — once bare, once journaling barrier checkpoints to disk at
    the default cadence (:class:`repro.sim.checkpoint.CheckpointConfig`)
    — arms interleaved with alternating order, best-of-``rounds`` per
    arm.  ``meta.overhead`` is ``checkpointed wall / bare wall - 1``
    (the number the perf gate bounds below 5%); ``identical`` asserts
    the journaled run's metrics stayed bit-identical; the checkpoint
    count and on-disk bytes quantify what the cadence actually wrote.
    """
    import os
    import shutil
    import tempfile

    from repro.experiments.cluster import run_cluster
    from repro.sim.checkpoint import list_checkpoints

    tmp = tempfile.mkdtemp(prefix="repro-ckpt-bench-")

    def bare_arm():
        return run_cluster(
            "cluster_scale", seed=7, sim_s=sim_s, shards=shards,
            backend="fork",
        )

    def checkpointed_arm():
        ckpt = os.path.join(tmp, "ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
        return run_cluster(
            "cluster_scale", seed=7, sim_s=sim_s, shards=shards,
            backend="fork", checkpoint_dir=ckpt,
        ), ckpt

    # Warm both arms so neither measured round pays first-run costs.
    warm = min(sim_s / 5.0, 0.02)
    run_cluster(
        "cluster_scale", seed=7, sim_s=warm, shards=shards, backend="fork"
    )
    run_cluster(
        "cluster_scale", seed=7, sim_s=warm, shards=shards, backend="fork",
        checkpoint_dir=os.path.join(tmp, "warm"),
    )

    bare_walls: List[float] = []
    ckpt_walls: List[float] = []
    bare_metrics: Dict[str, Any] = {}
    ckpt_metrics: Dict[str, Any] = {}
    files = 0
    bytes_on_disk = 0
    try:
        for r in range(max(1, rounds)):
            arms = ["bare", "ckpt"] if r % 2 == 0 else ["ckpt", "bare"]
            for name in arms:
                wall0 = time.perf_counter()
                if name == "bare":
                    result = bare_arm()
                    bare_walls.append(time.perf_counter() - wall0)
                    bare_metrics = result.metrics()
                else:
                    result, ckpt_dir = checkpointed_arm()
                    ckpt_walls.append(time.perf_counter() - wall0)
                    ckpt_metrics = result.metrics()
                    paths = list_checkpoints(ckpt_dir)
                    files = len(paths)
                    bytes_on_disk = sum(p.stat().st_size for p in paths)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bare_wall = min(bare_walls)
    ckpt_wall = min(ckpt_walls)
    return {
        "sim_s": sim_s,
        "shards": shards,
        "rounds": max(1, rounds),
        "bare_wall_s": round(bare_wall, 4),
        "checkpointed_wall_s": round(ckpt_wall, 4),
        "overhead": round(ckpt_wall / bare_wall - 1.0, 4),
        "checkpoint_files": files,
        "checkpoint_bytes": bytes_on_disk,
        "identical": bare_metrics == ckpt_metrics,
    }


def service_throughput(requests: int = 2000) -> Dict[str, Any]:
    """The ResEx service gateway under seeded open-loop load.

    One sim-mode gateway and one load-generator client share an asyncio
    loop over a real localhost socket — the full wire path (framing,
    handshake, per-client queue, orchestrator lock, DES world) with no
    network variance.  ``meta`` carries the service-level numbers the
    ISSUE acceptance pins: achieved requests/s and the gateway's
    p50/p99 per-request overhead (enqueue to response written).
    """
    import asyncio

    from repro.service import (
        Orchestrator,
        ServiceConfig,
        ServiceGateway,
        SimBackend,
        run_loadgen,
    )

    async def _run():
        gateway = ServiceGateway(
            Orchestrator(SimBackend(ServiceConfig(), seed=7))
        )
        await gateway.start()
        try:
            report = await run_loadgen(
                "127.0.0.1", gateway.port, requests=requests, seed=7
            )
        finally:
            await gateway.stop()
        return report, gateway.stats()

    report, stats = asyncio.run(_run())
    d = report.to_dict()
    return {
        "requests": d["requests"],
        "rps": d["rps"],
        "ok": d["ok"],
        "rejected": d["rejected"],
        "p50_overhead_us": stats["p50_overhead_us"],
        "p99_overhead_us": stats["p99_overhead_us"],
        "digest12": report.digest[:12],
    }


#: name -> (workload, one-line description).
WORKLOADS: Dict[str, Tuple[Callable[[], Dict[str, Any]], str]] = {
    "headline_managed": (
        headline_managed, "managed scenario, 2MB interferer + IOShares, 0.3 sim-s"
    ),
    "chaos_linkflap": (
        chaos_linkflap, "fig9 link-flap chaos campaign, 1.0 sim-s"
    ),
    "kernel_timeout_ping": (
        kernel_timeout_ping, "200k bare timeout events through the DES kernel"
    ),
    "fabric_churn": (
        fabric_churn, "4k overlapping transfers across a 3-link fabric"
    ),
    "telemetry_emit": (
        telemetry_emit, "300k telemetry records, list + ring mode"
    ),
    "sweep_replication": (
        sweep_replication,
        "16-seed replication sweep: serial vs 4-worker pool vs warm cache",
    ),
    "invariants_record": (
        invariants_record,
        "managed scenario A/B: invariant guards off vs record mode",
    ),
    "cluster_scale": (
        cluster_scale,
        "256-host leaf-spine cluster: 2048 VMs, 2000 flows, price federation",
    ),
    "cluster_scale_sharded": (
        cluster_scale_sharded,
        "cluster_scale serial vs 4-shard fork A/B (must be bit-identical)",
    ),
    "checkpoint_overhead": (
        checkpoint_overhead,
        "4-shard cluster_scale with vs without barrier checkpointing",
    ),
    "service_throughput": (
        service_throughput,
        "sim-mode service gateway + loadgen over localhost, 2000 requests",
    ),
}

# Best-of-3 process_time of the commit before the fast path, frozen at
# capture (see PRE_OPTIMIZATION_PROCESS_S above).
PRE_OPTIMIZATION_PROCESS_S.update(
    {
        "headline_managed": 1.232,
        "chaos_linkflap": 3.079,
        "kernel_timeout_ping": 0.255,
        "fabric_churn": 16.724,
        "telemetry_emit": 0.519,
    }
)


# -- runner ------------------------------------------------------------------

def run_workload(name: str, rounds: int = 3) -> Dict[str, Any]:
    """Run one workload ``rounds`` times; report best process/wall time."""
    fn, description = WORKLOADS[name]
    process_runs: List[float] = []
    wall_runs: List[float] = []
    meta: Dict[str, Any] = {}
    for _ in range(max(rounds, 1)):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        meta = fn()
        process_runs.append(time.process_time() - cpu0)
        wall_runs.append(time.perf_counter() - wall0)
    entry: Dict[str, Any] = {
        "description": description,
        "process_s_best": min(process_runs),
        "process_s_runs": [round(t, 4) for t in process_runs],
        "wall_s_best": min(wall_runs),
        "meta": meta,
    }
    pre = PRE_OPTIMIZATION_PROCESS_S.get(name)
    if pre:
        entry["pre_optimization_process_s"] = pre
        entry["speedup_vs_pre"] = round(pre / entry["process_s_best"], 3)
    return entry


def run_benchmarks(
    names: Optional[List[str]] = None,
    rounds: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the suite; returns the ``BENCH_perf.json`` document."""
    from repro._version import __version__

    selected = names or list(WORKLOADS)
    unknown = [n for n in selected if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown benchmarks: {unknown} (have {list(WORKLOADS)})")
    results: Dict[str, Any] = {}
    for name in selected:
        if progress is not None:
            progress(f"bench {name} ({rounds} rounds)...")
        results[name] = run_workload(name, rounds=rounds)
    return {
        "schema": "repro-bench/1",
        "version": __version__,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "rounds": rounds,
        "statistic": "best-of-rounds time.process_time() per workload",
        "methodology": (
            "each workload runs rounds times back to back in this process; "
            "process_s_best is the best-of-rounds time.process_time(). "
            "speedup_vs_pre divides pre_optimization_process_s, constants "
            "frozen in the source when the fast path landed, by "
            "process_s_best: no pre/post A/B rounds are run, so the ratio "
            "includes any host or session drift since that capture; "
            "absolute times are host-dependent and NOT comparable across "
            "machines"
        ),
        "benchmarks": results,
    }


def render_benchmarks(doc: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_benchmarks` document."""
    from repro.analysis import render_table

    rows = []
    for name, entry in doc["benchmarks"].items():
        rows.append(
            [
                name,
                f"{entry['process_s_best']:.3f}",
                f"{entry['wall_s_best']:.3f}",
                f"{entry.get('pre_optimization_process_s', float('nan')):.3f}",
                f"{entry.get('speedup_vs_pre', float('nan')):.2f}x",
            ]
        )
    return render_table(
        ["benchmark", "proc s (best)", "wall s (best)", "pre proc s", "speedup"],
        rows,
        title=f"repro bench ({doc['rounds']} rounds, {doc['host']['python']})",
    )


#: How many superseded runs ``write_bench_json`` keeps in ``history``.
BENCH_HISTORY_LIMIT = 20


def write_bench_json(path, doc: Dict[str, Any]) -> None:
    """Write ``doc`` to ``path``, preserving prior runs as history.

    An existing well-formed document is demoted (minus its own
    ``history``) into the new document's ``history`` list, newest
    first and capped at :data:`BENCH_HISTORY_LIMIT` — so the top-level
    document is always the latest run, but a regression's "before"
    numbers survive the rerun that found it.  An unreadable or
    foreign-schema file is overwritten without history rather than
    failing the bench run.
    """
    import pathlib

    target = pathlib.Path(path)
    history: List[Dict[str, Any]] = []
    try:
        prior = json.loads(target.read_text())
    except (OSError, ValueError):
        prior = None
    if isinstance(prior, dict) and str(
        prior.get("schema", "")
    ).startswith("repro-bench/"):
        history = list(prior.pop("history", []))
        history.insert(0, prior)
    out = dict(doc)
    out["history"] = history[:BENCH_HISTORY_LIMIT]
    target.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
