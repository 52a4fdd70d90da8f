"""The five benchmark workloads, from the paper's testbed to the served market.

Each workload is what a user of the reproduction runs, driven the way
they drive it:

``platform``
    One run of the paper's 2-host testbed in its managed configuration
    (the 64 KB reporting VM beside a 2 MB interferer, under IOShares),
    0.1 simulated seconds -- ``repro scenario``.  Every layer of the
    modelled stack runs in one process.
``sweep``
    A 4-seed replication of the fig9 chaos scenario under the
    ``combined`` fault campaign on a 2-worker pool -- ``repro sweep
    --campaign``.  Adds pool start-up, fan-out and fault injection.
``cluster``
    The 256-host ``cluster_scale`` leaf-spine preset (2048 VMs, 2000
    background flows, per-rack ResEx with price federation) for 0.05
    simulated seconds, serially -- ``repro cluster``.  The fabric solver
    at scale, with the shard runtime bypassed.
``sharded``
    The same cluster runs split across 2 forked shard workers --
    ``repro cluster --shards 2``.  Exercises barriers, the mailbox and
    the balance between shards; its results must equal ``cluster``'s.
``served``
    ``repro serve --mode sim`` in its own process, driven over localhost
    by one client keeping 64 requests in flight (``repro loadgen``'s
    window) with the default order-heavy mix.  Exercises the gateway,
    the wire protocol and the served market.

A simulation workload's operation is one run; the served workload's is
one request.  Every input is derived from the benchmark seed, and every
run checks its outputs: simulations are re-run and must repeat bit for
bit (the sharded run against the serial one, the pooled sweep against
an in-process one), and the served response log must equal an
in-process replay of the same requests.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from layers import Tracer

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass
class Measurement:
    """What one benchmark run measured."""

    #: Wall time of each measured operation, in seconds.
    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    #: Wall time the measured operations took: their sum when they run
    #: one after another, the span of the window when they overlap.
    window_s: float = 0.0
    correct: bool = False
    #: Cold set-up times; empty for a traced run.
    setup_s: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def _seed_stream(workload: str, seed: int):
    rng = random.Random(f"perfbench/{workload}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def _python_env(src_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


class SimulationWorkload:
    """A workload whose operation is one complete simulation run."""

    name = ""
    #: Python source a fresh interpreter runs to time cold set-up:
    #: import what the command imports and build its first world,
    #: without advancing simulated time.  ``SEED`` is substituted.
    probe = ""

    def __init__(self, seed: int, src_dir: str) -> None:
        self.src_dir = src_dir
        self._seeds = _seed_stream(self.name, seed)

    def run_op(self, seed: int) -> Tuple[str, Dict[str, float]]:
        """One operation: returns a digest of its output and its work
        counts; raises on output that is plainly wrong."""
        raise NotImplementedError

    def reference(self, seed: int) -> str:
        """The digest the operation for ``seed`` must produce."""
        return self.run_op(seed)[0]

    def time_setup(self) -> List[float]:
        code = self.probe.replace("SEED", str(next(self._seeds)))
        env = _python_env(self.src_dir)
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - t0)
        return times

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        out = Measurement()
        self.run_op(next(self._seeds))  # warm-up: imports, allocator, caches
        if tracer is None:
            out.setup_s = self.time_setup()
        digests: List[Tuple[int, Optional[str]]] = []
        deadline = time.perf_counter() + seconds
        while True:
            seed = next(self._seeds)
            # Start each run from a collected heap, as a fresh `repro`
            # process does, so the collector's schedule does not depend
            # on the runs before it.
            gc.collect()
            if tracer is not None:
                tracer.start()
            t0 = time.perf_counter()
            try:
                digest, counts = self.run_op(seed)
            except Exception:
                traceback.print_exc()
                out.failed += 1
                digest, counts = None, {}
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.stop()
                tracer.add_counts(counts)
            out.latencies_s.append(t1 - t0)
            digests.append((seed, digest))
            if t1 >= deadline:
                break
        out.window_s = sum(out.latencies_s)
        first_seed, first_digest = digests[0]
        out.correct = out.failed == 0 and self.reference(first_seed) == first_digest
        if not out.correct:
            print(f"{self.name}: output check failed", file=sys.stderr)
        return out


class Platform(SimulationWorkload):
    name = "platform"
    probe = (
        "from repro.benchex import BenchExConfig\n"
        "from repro.experiments import build_scenario\n"
        "from repro.units import MiB\n"
        "build_scenario('perfbench', seed=SEED, policy='ioshares',"
        " interferer=BenchExConfig(name='interferer', buffer_bytes=2 * MiB))\n"
    )
    SIM_S = 0.1

    def run_op(self, seed):
        import numpy as np

        from repro.benchex import BenchExConfig
        from repro.experiments import run_scenario
        from repro.units import MiB

        result = run_scenario(
            "perfbench",
            seed=seed,
            policy="ioshares",
            interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
            sim_s=self.SIM_S,
        )
        lat = np.ascontiguousarray(result.latencies_us, dtype=float)
        if result.breakdown.n == 0 or not (np.isfinite(lat).all() and (lat > 0).all()):
            raise ValueError(f"seed {seed}: no or non-positive reporting latencies")
        digest = hashlib.sha256(lat.tobytes())
        digest.update(str(result.sim_time_ns).encode())
        return digest.hexdigest(), {}


class Sweep(SimulationWorkload):
    name = "sweep"
    probe = (
        "from repro.experiments.multiseed import sweep_chaos\n"
        "from repro.experiments.scenarios import build_scenario, chaos_config\n"
        "build_scenario('fig9', seed=SEED, **chaos_config('fig9'))\n"
    )
    CELLS = 4
    JOBS = 2
    SIM_S = 0.05

    def _sweep(self, seed: int, jobs: int) -> str:
        from repro.experiments.multiseed import sweep_chaos

        cells = random.Random(seed).sample(range(1, 2**31), self.CELLS)
        replications, _report = sweep_chaos(
            "fig9", cells, campaign="combined", jobs=jobs, sim_s=self.SIM_S
        )
        return repr(sorted((k, r.values) for k, r in replications.items()))

    def run_op(self, seed):
        return self._sweep(seed, self.JOBS), {}

    def reference(self, seed):
        # The pool must reproduce an in-process sweep bit for bit.
        return self._sweep(seed, 1)


class Cluster(SimulationWorkload):
    name = "cluster"
    probe = (
        "from repro.experiments.cluster import build_cluster, run_cluster\n"
        "build_cluster('cluster_scale', seed=SEED)\n"
    )
    PRESET = "cluster_scale"
    SIM_S = 0.05
    SHARDS = 1

    def _run(self, seed: int, shards: int):
        from repro.experiments.cluster import run_cluster

        result = run_cluster(
            self.PRESET,
            seed=seed,
            sim_s=self.SIM_S,
            shards=shards,
            backend="fork" if shards > 1 else "auto",
        )
        m = result.metrics()
        if not 0 < m["flows_completed"] <= m["flows_submitted"]:
            raise ValueError(f"seed {seed}: {m['flows_completed']} flows completed")
        stats = result.shard_stats
        counts = {
            "barriers": float(stats.barriers),
            "messages": float(stats.messages_exchanged),
        }
        return repr(sorted(m.items())), counts

    def run_op(self, seed):
        return self._run(seed, self.SHARDS)

    def reference(self, seed):
        # Sharding must not change a single bit of the serial result.
        return self._run(seed, 1)[0]


class Sharded(Cluster):
    name = "sharded"
    SHARDS = 2


class Served:
    """``repro serve --mode sim`` driven by one pipelined client."""

    name = "served"
    WINDOW = 64
    WARMUP_REQUESTS = 256
    #: Trace length per measured second; the window ends early if a
    #: much faster service exhausts it.
    REQUESTS_PER_S = 6000
    SLOTS = 8
    POLICY = "freemarket"

    def __init__(self, seed: int, src_dir: str) -> None:
        self.src_dir = src_dir
        self.seed = next(_seed_stream(self.name, seed))

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        from repro.service.loadgen import build_trace

        trace = build_trace(
            requests=self.WARMUP_REQUESTS + int(seconds * self.REQUESTS_PER_S),
            vms=4,
            seed=self.seed,
        )
        out, responses = asyncio.run(self._drive(trace, seconds, tracer))
        all_ok = all(r["ok"] for r in responses.values())
        out.correct = all_ok and self._replay_digest(
            trace[: len(responses)]
        ) == self._digest(responses)
        if not out.correct:
            print(f"{self.name}: output check failed", file=sys.stderr)
        return out

    # -- the gateway process ---------------------------------------------
    async def _start_gateway(self, traced: bool):
        from repro.service import ServiceClient

        here = os.path.dirname(os.path.abspath(__file__))
        entry = (
            [os.path.join(here, "gateway.py")] if traced else ["-m", "repro"]
        )
        proc = await asyncio.create_subprocess_exec(
            sys.executable, *entry, "-q", "serve", "--mode", "sim", "--port", "0",
            "--seed", str(self.seed), "--slots", str(self.SLOTS), "--policy", self.POLICY,
            env=_python_env(self.src_dir),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
        )
        try:
            line = (await proc.stdout.readline()).decode()
            if not line.startswith("listening "):
                raise RuntimeError(f"gateway did not start: {line!r}")
            host, port = line.split()[1].rsplit(":", 1)
            client = await ServiceClient.connect(host, int(port), client="perfbench")
        except BaseException:
            await self._stop_gateway(proc)
            raise
        return proc, client

    @staticmethod
    async def _stop_gateway(proc) -> Tuple[bytes, bytes]:
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        stdout, stderr = await proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(
                f"gateway exited with {proc.returncode}: {stderr.decode()[-2000:]}"
            )
        return stdout, stderr

    # -- the client ----------------------------------------------------------
    async def _drive(self, trace, seconds: float, tracer: Optional[Tracer]):
        from repro.errors import ServiceError

        out = Measurement()
        reps = 1 if tracer is not None else SETUP_REPS
        for rep in range(reps):
            t0 = time.perf_counter()
            proc, client = await self._start_gateway(tracer is not None)
            out.setup_s.append(time.perf_counter() - t0)
            if rep < reps - 1:
                await client.close()
                await self._stop_gateway(proc)
        if tracer is not None:
            out.setup_s = []

        responses: Dict[int, Dict[str, Any]] = {}
        done_at: Dict[int, float] = {}
        inflight: deque = deque()
        failed = 0

        async def settle() -> None:
            nonlocal failed
            rid, op, future = inflight.popleft()
            try:
                responses[rid] = {"op": op, "ok": True, "data": await future}
            except ServiceError as exc:
                responses[rid] = {"op": op, "ok": False, "code": exc.code, "error": str(exc)}
                failed += 1

        def send(rid: int) -> float:
            req = trace[rid - 1]
            sent = time.perf_counter()
            future = client.send_nowait(req["op"], req["params"], req["at_ns"])
            future.add_done_callback(
                lambda _f, rid=rid: done_at.__setitem__(rid, time.perf_counter())
            )
            inflight.append((rid, req["op"], future))
            return sent

        try:
            rid = 0
            for rid in range(1, self.WARMUP_REQUESTS + 1):
                send(rid)
                if len(inflight) >= self.WINDOW:
                    await settle()
            while inflight:
                await settle()
            failed = 0

            # The load generator keeps every response; its collector
            # scanning them would stall the pipeline and be measured as
            # service latency.
            gc.collect()
            gc.disable()
            if tracer is not None:
                proc.send_signal(signal.SIGUSR1)
                tracer.start()
            sent_at: Dict[int, float] = {}
            start = time.perf_counter()
            deadline = start + seconds
            while rid < len(trace) and time.perf_counter() < deadline:
                rid += 1
                sent_at[rid] = send(rid)
                if len(inflight) >= self.WINDOW:
                    await settle()
            while inflight:
                await settle()
            out.window_s = time.perf_counter() - start
            if tracer is not None:
                tracer.stop()
                proc.send_signal(signal.SIGUSR2)
        finally:
            gc.enable()
            await client.close()
            # Let the gateway finish the closed session before SIGTERM.
            await asyncio.sleep(0.05)
            stdout, _stderr = await self._stop_gateway(proc)

        if tracer is not None:
            tracer.add_report(json.loads(stdout.decode().strip().splitlines()[-1]))
        out.latencies_s = [done_at[r] - sent_at[r] for r in sorted(sent_at)]
        out.failed = failed
        return out, responses

    # -- the output check ------------------------------------------------
    @staticmethod
    def _digest(responses: Dict[int, Dict[str, Any]]) -> str:
        from repro.service.loadgen import response_digest

        return response_digest(responses)

    def _replay_digest(self, trace) -> str:
        """Digest of the same requests routed in process, no sockets."""
        from repro.errors import ServiceError
        from repro.service import Orchestrator, ServiceConfig, SimBackend

        orchestrator = Orchestrator(
            SimBackend(ServiceConfig(slots=self.SLOTS, policy=self.POLICY), seed=self.seed)
        )

        async def replay() -> Dict[int, Dict[str, Any]]:
            responses: Dict[int, Dict[str, Any]] = {}
            await orchestrator.start()
            try:
                for rid, req in enumerate(trace, start=1):
                    try:
                        data = await orchestrator.handle(
                            req["op"], req["params"], at_ns=req["at_ns"]
                        )
                        responses[rid] = {"op": req["op"], "ok": True, "data": data}
                    except ServiceError as exc:
                        responses[rid] = {
                            "op": req["op"], "ok": False,
                            "code": exc.code, "error": str(exc),
                        }
            finally:
                await orchestrator.stop()
            return responses

        return self._digest(asyncio.run(replay()))


WORKLOADS = {
    cls.name: cls for cls in (Platform, Sweep, Cluster, Sharded, Served)
}
