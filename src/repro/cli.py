"""Command-line interface: run figures, ad-hoc scenarios and traces.

Examples::

    python -m repro figures --list
    python -m repro figures fig1 headline
    python -m repro figures --all --scale full --out results/
    python -m repro scenario --interferer 2MB --policy ioshares --sim-s 2
    python -m repro trace fig1 -o fig1-trace.json
    python -m repro policies

Status messages go to stderr through the shared telemetry logger, so
``--quiet`` / ``--verbose`` behave uniformly across subcommands while
stdout stays clean for experiment output.  Options that mean the same
thing everywhere come from one set of shared option groups, every
``--json`` document is printed by :func:`_emit`, and every failure is a
:class:`~repro.errors.ReproError` that only :func:`main` maps to an exit
code.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro._version import __version__
from repro.errors import ConfigError, ReproError, SweepError
from repro.telemetry import configure as configure_logging
from repro.telemetry import get_logger
from repro.units import KiB, MiB


def _emit(doc) -> None:
    """Print one ``--json`` document (the only JSON writer on stdout)."""
    print(json.dumps(doc, indent=2, sort_keys=True))


@contextmanager
def _invariant_guards(mode: str):
    """Run a command under ``--invariants``: yields the monitor (``None``
    when off) and warns on exit when it recorded violations."""
    if mode == "off":
        yield None
        return
    from repro.sim import invariants

    with invariants.activate(mode) as monitor:
        yield monitor
    if monitor.tainted:
        get_logger().warning(
            f"invariant guards recorded {len(monitor.violations)} "
            f"violation(s); results are tainted"
        )


def _interferer(size: int, **config):
    """The interfering VM's BenchEx config for an ``--interferer`` size."""
    from repro.benchex import BenchExConfig

    return BenchExConfig(name="interferer", buffer_bytes=size, **config)


def _parse_size(text: str) -> int:
    """'64KB' / '2MB' / '1048576' -> bytes."""
    t = text.strip().upper()
    try:
        for suffix, mult in (("KB", KiB), ("KIB", KiB), ("MB", MiB), ("MIB", MiB)):
            if t.endswith(suffix):
                return int(float(t[: -len(suffix)]) * mult)
        return int(t)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. '64KB', '2MB' or bytes)"
        ) from None


def _format_size(nbytes: int) -> str:
    """Inverse of :func:`_parse_size` for display ('2MB', '64KB', '123')."""
    if nbytes and nbytes % MiB == 0:
        return f"{nbytes // MiB}MB"
    if nbytes and nbytes % KiB == 0:
        return f"{nbytes // KiB}KB"
    return str(nbytes)


def _given(args: argparse.Namespace, **defaults) -> List[str]:
    """The flags among ``defaults`` (``dest=default``) given another value."""
    return [
        f"--{dest.replace('_', '-')}"
        for dest, default in defaults.items()
        if getattr(args, dest) != default
    ]


def _run_experiment_set(
    args: argparse.Namespace, registry_name: str, registry: dict
) -> int:
    from repro.experiments.suite import run_registry_set

    if args.list:
        for name, fn in registry.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name:10s} {doc[0] if doc else ''}")
        return 0

    names = list(registry) if args.all else args.names
    if not names:
        raise ConfigError(
            "nothing selected (use --all, --list, or name experiments)"
        )
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale

    log = get_logger()
    log.debug(f"running {len(names)} experiment(s) on {args.jobs} worker(s)...")
    results, report = run_registry_set(
        registry_name, names, seed=args.seed, jobs=args.jobs
    )
    log.debug(report.render())

    out_dir: Optional[pathlib.Path] = None
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        text = result.render()
        print(text)
        print()
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(text + "\n")
            log.debug(f"saved {out_dir / f'{name}.txt'}")
            if args.json:
                from repro.analysis import write_figure_json

                write_figure_json(out_dir / f"{name}.json", result)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_FIGURES

    return _run_experiment_set(args, "figures", ALL_FIGURES)


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ALL_ABLATIONS

    return _run_experiment_set(args, "ablations", ALL_ABLATIONS)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.experiments import run_scenario

    interferer = None
    if args.interferer:
        interferer = _interferer(
            args.interferer, pipeline_depth=args.interferer_depth
        )
    with _invariant_guards(args.invariants):
        result = run_scenario(
            "cli",
            interferer=interferer,
            policy=args.policy,
            manual_cap=args.cap,
            n_servers=args.servers,
            sim_s=args.sim_s,
            seed=args.seed,
        )
    b = result.breakdown
    print(
        render_table(
            ["metric", "value (us)"],
            [
                ["CTime mean", b.ctime_mean],
                ["WTime mean", b.wtime_mean],
                ["PTime mean", b.ptime_mean],
                ["Total mean", b.total_mean],
                ["Total std", b.total_std],
                ["requests", float(b.n)],
            ],
            title=(
                f"Reporting-VM latency "
                f"(interferer={_format_size(args.interferer) if args.interferer else 'none'}, "
                f"policy={args.policy or 'none'}, cap={args.cap or '-'})"
            ),
        )
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.experiments.cluster import CLUSTER_SPECS, run_cluster
    from repro.supervise.manifest import result_digest

    if args.list:
        for name, spec in CLUSTER_SPECS.items():
            print(
                f"{name:20s} {spec.topology:10s} hosts={spec.n_hosts:<4d} "
                f"vms={spec.n_vms:<5d} flows={spec.n_flows:<5d} "
                f"sim_s={spec.sim_s}"
            )
        return 0

    worker_faults = []
    kill = None
    if args.kill_worker:
        from repro.faults import parse_worker_kill

        kill = parse_worker_kill(args.kill_worker)
        worker_faults.append(kill)

    with _invariant_guards(args.invariants) as monitor:
        result = run_cluster(
            args.preset, seed=args.seed, sim_s=args.sim_s,
            shards=args.shards, backend=args.shard_backend,
            coalesce=not args.no_coalesce,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            restore=args.restore,
            worker_faults=worker_faults,
        )
    if kill is not None and kill.fired is None:
        get_logger().warning(
            f"--kill-worker {args.kill_worker} never fired (the run had "
            "fewer barriers than its trigger)"
        )

    metrics = result.metrics()
    if args.json:
        doc = {
            "preset": args.preset,
            "seed": args.seed,
            "shards": args.shards,
            "tainted": monitor is not None and monitor.tainted,
            # The canonical digest of the metrics dict: the value the
            # shard differential (serial == N-shard) is held to in CI.
            "digest": result_digest(metrics),
            "metrics": metrics,
        }
        if result.shard_stats is not None:
            doc["shard_stats"] = result.shard_stats.to_dict()
        _emit(doc)
        return 0
    print(
        render_table(
            ["metric", "value"],
            [[k, v] for k, v in sorted(metrics.items())],
            title=(
                f"cluster {args.preset} (seed={args.seed}, "
                f"shards={args.shards})"
            ),
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one cluster preset or scenario run."""
    from repro.analysis.profiling import profile_call, write_collapsed
    from repro.experiments.cluster import CLUSTER_SPECS

    if args.target in CLUSTER_SPECS:
        from repro.experiments.cluster import run_cluster

        def runner():
            # Inline backend: the deterministic profiler only sees this
            # process, and inline is bit-identical to fork.
            return run_cluster(
                args.target, seed=args.seed, sim_s=args.sim_s,
                shards=args.shards,
                backend="inline" if args.shards > 1 else "auto",
            )
    else:
        from repro.experiments.scenarios import run_scenario

        if args.shards > 1:
            raise ConfigError("--shards applies to cluster presets only")

        def runner():
            kwargs = {}
            if args.sim_s is not None:
                kwargs["sim_s"] = args.sim_s
            return run_scenario(args.target, seed=args.seed, **kwargs)

    _, report = profile_call(runner, top=args.top, memory=args.memory)

    if args.collapsed:
        write_collapsed(report, args.collapsed)
        get_logger().info(
            f"wrote {len(report.collapsed)} collapsed-stack lines to "
            f"{args.collapsed}"
        )
    if args.json:
        _emit(report.to_dict())
    else:
        print(f"profile: {args.target} (seed={args.seed})")
        print(report.render(), end="")
    return 0


def _build_service_gateway(args: argparse.Namespace):
    from repro.service import (
        LiveBackend,
        Orchestrator,
        ResExWorld,
        ServiceConfig,
        ServiceGateway,
        SimBackend,
        load_world_snapshot,
    )

    world = None
    if getattr(args, "restore", None):
        # A restored world carries its own (seed, config); the CLI's
        # --slots/--policy/--seed are ignored in favor of the snapshot.
        snap = load_world_snapshot(args.restore)
        world = ResExWorld.restore(snap)
        get_logger().info(
            f"restored world from {args.restore} "
            f"(t={world.now_ns} ns, {len(world.bindings)} tenant(s) bound)"
        )
    config = ServiceConfig(slots=args.slots, policy=args.policy)
    backend_cls = SimBackend if args.mode == "sim" else LiveBackend
    backend = backend_cls(config, seed=args.seed, world=world)
    return ServiceGateway(
        Orchestrator(backend),
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        logger=get_logger(),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the ResEx service gateway until SIGTERM/SIGINT."""
    import asyncio
    import signal

    from repro.service import save_world_snapshot

    gateway = _build_service_gateway(args)

    async def _serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await gateway.start()
        # The bound port goes to stdout so scripts can scrape it when
        # asking for an ephemeral port (--port 0).
        print(f"listening {gateway.host}:{gateway.port} mode={args.mode}", flush=True)
        try:
            await stop.wait()
        finally:
            get_logger().info("shutting down service gateway")
            if args.checkpoint:
                # Graceful degradation: refuse new dials, answer what
                # is already queued, then snapshot the served world.
                await gateway.drain()
                snap = gateway.orchestrator.backend.world.snapshot()
                digest = save_world_snapshot(args.checkpoint, snap)
                get_logger().info(
                    f"world checkpoint written to {args.checkpoint} "
                    f"(digest {digest[:12]}..., "
                    f"{snap['in_flight_lost']} in-flight order(s) dropped)"
                )
            await gateway.stop()

    asyncio.run(_serve())
    stats = gateway.stats()
    get_logger().info(
        f"served {stats['requests_served']} requests over "
        f"{stats['sessions_opened']} session(s), "
        f"rejected {stats['requests_rejected']}"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Fire a seeded synthetic load at a running service gateway."""
    import asyncio

    from repro.service import run_loadgen

    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            requests=args.requests,
            vms=args.vms,
            seed=args.seed,
            arrivals=args.arrivals,
            rate_per_s=args.rate,
            window=args.window,
            connect_retries=args.retries,
        )
    )
    if args.json:
        _emit(report.to_dict())
    else:
        print(report.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    log = get_logger()
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    text = generate_report(
        seed=args.seed,
        include_ablations=not args.no_ablations,
        progress=log.info,
        jobs=args.jobs,
    )
    if args.output:
        pathlib.Path(args.output).write_text(text)
        log.info(f"report written to {args.output}")
    else:
        print(text)
    return 0


#: Traceable scenario presets.  ``fig1`` runs the paper's interfered
#: configuration *under IOShares management* so every layer of the
#: stack (kernel, credit, hca/fabric, ibmon, resex, benchex) emits
#: spans into the trace.
TRACE_PRESETS = {
    "base": {"interferer": None, "policy": None},
    "interfered": {"interferer": 2 * MiB, "policy": None},
    "managed": {"interferer": 2 * MiB, "policy": "ioshares"},
    "fig1": {"interferer": 2 * MiB, "policy": "ioshares"},
}


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis import write_chrome_trace, write_telemetry_csv
    from repro.experiments import run_scenario
    from repro.telemetry import TelemetryBus

    log = get_logger()
    preset = dict(TRACE_PRESETS[args.scenario])
    if args.interferer is not None:
        preset["interferer"] = args.interferer or None
    if args.policy is not None:
        preset["policy"] = args.policy or None
    size = preset["interferer"]

    bus = TelemetryBus(kernel_dispatch=args.kernel_events)
    log.debug(
        f"tracing scenario {args.scenario!r} "
        f"(interferer={_format_size(size) if size else 'none'}, "
        f"policy={preset['policy'] or 'none'}, sim_s={args.sim_s})"
    )
    run_scenario(
        args.scenario,
        interferer=_interferer(size) if size else None,
        policy=preset["policy"],
        sim_s=args.sim_s,
        seed=args.seed,
        telemetry=bus,
    )

    out = pathlib.Path(args.output or f"trace-{args.scenario}.json")
    n = write_chrome_trace(out, bus)
    layers = bus.categories()
    log.info(
        f"wrote {n} trace records from {len(layers)} layers to {out} "
        "(load in chrome://tracing or https://ui.perfetto.dev)"
    )
    log.debug("layers: " + ", ".join(sorted(layers)))
    if args.csv:
        csv_path = out.with_suffix(".csv")
        write_telemetry_csv(csv_path, bus)
        log.info(f"wrote CSV records to {csv_path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis import render_table, write_chrome_trace
    from repro.experiments import CHAOS_SCENARIOS, run_chaos_scenario
    from repro.experiments.scenarios import chaos_config
    from repro.faults import degradation_table, preset_campaign
    from repro.telemetry import TelemetryBus
    from repro.units import MS, SEC

    log = get_logger()
    chaos_config(args.scenario)  # validate the preset name up front
    campaign = preset_campaign(args.campaign, args.sim_s, seed=args.seed)

    overrides = {}
    if args.policy is not None:
        overrides["policy"] = args.policy or None
    if args.interferer is not None:
        overrides["interferer"] = _interferer(args.interferer)

    if args.dry_run:
        print(
            f"chaos plan: scenario={args.scenario} campaign={campaign.name} "
            f"seed={args.seed} sim_s={args.sim_s}"
        )
        print(
            render_table(
                ["fault", "target", "start (s)", "dur (ms)", "sev"],
                [
                    [
                        f.kind,
                        f.target,
                        f"{f.start_ns / SEC:.3f}",
                        f"{f.duration_ns / MS:.1f}",
                        f"{f.severity:.2f}",
                    ]
                    for f in campaign.faults
                ],
                title=f"campaign schedule ({len(campaign.faults)} faults)",
            )
        )
        return 0

    if args.compare:
        ignored = _given(args, json=False, trace=None, invariants="off")
        if ignored:
            raise ConfigError(
                f"--compare prints only the degradation table; drop "
                f"{', '.join(ignored)}"
            )
        reports = {}
        for variant, preset in sorted(CHAOS_SCENARIOS.items()):
            if preset["policy"] is None:
                continue
            log.debug(f"running chaos variant {variant}...")
            chaos = run_chaos_scenario(
                variant,
                campaign=campaign,
                sim_s=args.sim_s,
                seed=args.seed,
                **overrides,
            )
            reports[chaos.report.policy] = chaos.report
        print(degradation_table(reports))
        return 0

    log.debug(
        f"running chaos scenario {args.scenario!r} "
        f"(campaign={campaign.name}, sim_s={args.sim_s})"
    )
    bus = TelemetryBus() if args.trace else None
    with _invariant_guards(args.invariants) as monitor:
        chaos = run_chaos_scenario(
            args.scenario,
            campaign=campaign,
            sim_s=args.sim_s,
            seed=args.seed,
            telemetry=bus,
            **overrides,
        )
    if args.json:
        doc = chaos.report.to_dict()
        if monitor is not None:
            doc["integrity"] = {
                "tainted": monitor.tainted,
                "invariant_mode": args.invariants,
                "violations": monitor.to_dicts(),
            }
        _emit(doc)
    else:
        print(chaos.report.render())
    if args.trace:
        out = pathlib.Path(args.trace)
        n = write_chrome_trace(out, bus)
        log.info(f"wrote {n} trace records to {out}")
    return 0


def _parse_seeds(text: str) -> List[int]:
    """'8' -> seeds 0..7; '3:7' -> [3..6]; '1,5,9' -> that list."""
    t = text.strip()
    try:
        if ":" in t:
            lo, hi = t.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        elif "," in t:
            seeds = [int(x) for x in t.split(",") if x.strip()]
        else:
            seeds = list(range(int(t)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid seed spec {text!r} (expected e.g. '8', '3:7' or '1,5,9')"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed spec {text!r} selects no seeds")
    return seeds


def _sweep_jobs(args: argparse.Namespace) -> list:
    """One scenario (or, with ``--campaign``, chaos) cell per seed."""
    from repro.parallel import SweepJob

    spec = {"sim_s": args.sim_s}
    if args.interferer:
        spec["interferer"] = _interferer(args.interferer)
    if args.policy is not None:
        spec["policy"] = args.policy or None
    if args.campaign:
        spec["campaign"] = args.campaign
        return [SweepJob("chaos", args.name, int(s), spec) for s in args.seeds]
    return [SweepJob("scenario", args.name, int(s), dict(spec)) for s in args.seeds]


def _run_supervised_sweep(args: argparse.Namespace, cache, log):
    """``repro sweep --supervise`` / ``--resume``: the watchdog runtime."""
    from repro.supervise import SupervisePolicy, resume_sweep, supervised_sweep

    policy = SupervisePolicy(
        timeout_s=args.timeout_s,
        stall_s=args.stall_s,
        retries=args.retries,
    )
    if args.resume:
        log.debug(f"resuming run {args.resume} from {args.run_dir}...")
        sup = resume_sweep(
            args.resume,
            run_dir=args.run_dir,
            policy=policy,
            workers=args.jobs,
            cache=cache,
            logger=log,
            retry_quarantined=args.retry_quarantined,
        )
    else:
        jobs = _sweep_jobs(args)
        log.debug(
            f"supervised sweep of {len(jobs)} cells "
            f"(jobs={args.jobs}, retries={policy.retries}, "
            f"timeout={policy.timeout_s or 'off'}, "
            f"stall={policy.stall_s or 'off'}, "
            f"invariants={args.invariants})"
        )
        sup = supervised_sweep(
            jobs,
            run_dir=args.run_dir,
            run_id=args.run_id,
            policy=policy,
            workers=args.jobs,
            cache=cache,
            logger=log,
            invariant_mode=args.invariants,
        )
    log.info(f"run {sup.run_id}: manifest at {sup.manifest_path}")
    return sup


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.experiments.multiseed import (
        CHAOS_METRICS,
        Replication,
        _check_complete,
    )
    from repro.parallel import run_sweep

    supervised = args.supervise or args.resume
    ignored = _given(args, timeout_s=0.0, stall_s=0.0, run_id=None)
    if ignored and not supervised:
        raise ConfigError(
            f"{', '.join(ignored)} only take effect with --supervise or --resume"
        )
    if args.retry_quarantined and not args.resume:
        raise ConfigError("--retry-quarantined only takes effect with --resume")

    log = get_logger()
    cache = None if args.no_cache else args.cache_dir
    sup = None
    if supervised:
        sup = _run_supervised_sweep(args, cache, log)
        cells, report = sup.cells, sup.report
        title = f"supervised sweep {args.name!r} ({len(cells)} cells)"
    else:
        log.debug(
            f"sweeping {args.name!r} over {len(args.seeds)} seeds "
            f"(jobs={args.jobs}, cache={cache or 'off'})"
        )
        with _invariant_guards(args.invariants):
            result = run_sweep(_sweep_jobs(args), workers=args.jobs, cache=cache)
        _check_complete(result, "chaos" if args.campaign else "scenario")
        cells, report = result.cells, result.report
        title = f"sweep {args.name!r} x{len(args.seeds)} seeds"
    if args.campaign:
        title += f" (campaign {args.campaign})"

    # Fold the cells into one Replication per metric (a quarantined
    # supervised cell leaves nothing to fold).
    metrics = {}
    if sup is None or sup.complete:
        chaos = any(c.job.kind == "chaos" for c in cells)
        seeds = tuple(c.job.seed for c in cells)
        for m in CHAOS_METRICS if chaos else ("total_mean",):
            metrics[m] = Replication(
                name=m, seeds=seeds, values=tuple(c.metrics[m] for c in cells)
            )

    if args.json:
        doc = {
            "name": args.name,
            "campaign": args.campaign,
            "jobs": args.jobs,
            "metrics": {
                key: {
                    "values": list(rep.values),
                    "mean": rep.mean,
                    "std": rep.std,
                    "median": rep.median,
                    "ci95_halfwidth": rep.ci95_halfwidth(),
                    "n_nonfinite": rep.n_nonfinite,
                }
                for key, rep in metrics.items()
            },
            "report": report.to_dict(),
        }
        if sup is None:
            doc["seeds"] = args.seeds
        else:
            doc["run_id"] = sup.run_id
            doc["integrity"] = sup.integrity()
            doc["cell_errors"] = [
                {
                    "label": c.job.label,
                    "attempts": c.attempts,
                    "code": c.error_code,
                    "error": (c.error or "").splitlines()[0],
                }
                for c in cells
                if not c.ok
            ]
        _emit(doc)
    else:
        if metrics:
            print(
                render_table(
                    ["metric", "mean", "ci95", "median", "min", "max", "n inf"],
                    [
                        [
                            key,
                            rep.mean,
                            rep.ci95_halfwidth(),
                            rep.median,
                            rep.minimum,
                            rep.maximum,
                            float(rep.n_nonfinite),
                        ]
                        for key, rep in metrics.items()
                    ],
                    title=title,
                )
            )
        print(report.render())
        if sup is not None:
            integrity = sup.integrity()
            print(
                f"integrity: complete={integrity['complete']} "
                f"done={integrity['done']}/{integrity['cells']} "
                f"quarantined={integrity['quarantined']} "
                f"tainted={integrity['tainted']} "
                f"retried_attempts={integrity['retried_attempts']}"
            )
            for c in cells:
                if not c.ok:
                    print(
                        f"  quarantined {c.job.label} "
                        f"[{c.error_code}, {c.attempts} attempt(s)]: "
                        f"{(c.error or '').splitlines()[0]}"
                    )
    # A supervised run reports its quarantined cells itself and exits
    # with the sweep status; a plain sweep raised before printing.
    return 0 if sup is None or sup.complete else SweepError.exit_code


def _cmd_policies(_args: argparse.Namespace) -> int:
    from repro.resex import registered_policies

    for name, cls in sorted(registered_policies().items()):
        doc = (cls.__doc__ or "").strip().splitlines()
        print(f"{name:14s} {doc[0] if doc else ''}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # -- option groups shared by every subcommand that takes them ----------
    def verbosity(default) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(
            "-q",
            "--quiet",
            action="store_true",
            default=default,
            help="suppress status messages (stderr); output still prints",
        )
        group.add_argument(
            "-v",
            "--verbose",
            action="store_true",
            default=default,
            help="show per-step detail messages on stderr",
        )
        return group

    # On subparsers the flags default to SUPPRESS so a flag given before
    # the subcommand is not clobbered by the sub-parse.
    quiet = verbosity(argparse.SUPPRESS)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=7, help="simulation seed (default 7)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json",
        action="store_true",
        help="emit structured JSON (figures/ablations: write it next to "
        "the --out text)",
    )
    guards = argparse.ArgumentParser(add_help=False)
    guards.add_argument(
        "--invariants",
        choices=["off", "record", "strict"],
        default="off",
        help="runtime invariant guards: record violations, or fail fast "
        "on the first one (default off)",
    )
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1 = serial, same entry point)",
    )
    shards = argparse.ArgumentParser(add_help=False)
    shards.add_argument(
        "--shards", type=int, default=1,
        help="partition the run across N shard workers along the "
        "topology's domain plan (bit-identical to --shards 1; default 1)",
    )
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "--interferer",
        type=_parse_size,
        help="interfering VM buffer size (e.g. 2MB); overrides the preset's",
    )
    workload.add_argument(
        "--policy",
        help="pricing policy name (see 'repro policies'); overrides the preset's",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ResEx reproduction: run paper figures and scenarios.",
        parents=[verbosity(False)],
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *groups, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[quiet, *groups], **kwargs)
        p.set_defaults(func=func)
        return p

    for name, func, text in (
        ("figures", _cmd_figures, "run paper-figure experiments"),
        ("ablations", _cmd_ablations, "run design-choice ablation experiments"),
    ):
        p = command(name, func, seed, as_json, workers, help=text)
        p.add_argument("names", nargs="*", help="experiment names (see --list)")
        p.add_argument("--list", action="store_true", help="list experiments")
        p.add_argument("--all", action="store_true", help="run every experiment")
        p.add_argument("--scale", choices=["fast", "full"], default=None)
        p.add_argument("--out", help="directory to save rendered outputs")

    scenario = command(
        "scenario", _cmd_scenario, workload, seed, guards,
        help="run one ad-hoc scenario",
    )
    scenario.add_argument("--interferer-depth", type=int, default=2)
    scenario.add_argument(
        "--cap", type=int, help="manual CPU cap for the interfering VM"
    )
    scenario.add_argument("--servers", type=int, default=1)
    scenario.add_argument("--sim-s", type=float, default=1.0)

    cluster = command(
        "cluster", _cmd_cluster, seed, guards, as_json, shards,
        help="run a cluster-scale preset (leaf-spine / fat-tree topology, "
        "per-rack ResEx controllers, fabric-borne price federation)",
    )
    cluster.add_argument(
        "preset",
        nargs="?",
        default="cluster_smoke",
        help="preset name (see --list); default cluster_smoke",
    )
    cluster.add_argument(
        "--list", action="store_true", help="list registered cluster presets"
    )
    cluster.add_argument(
        "--sim-s", type=float, default=None,
        help="override the preset's simulated duration",
    )
    cluster.add_argument(
        "--shard-backend",
        choices=["auto", "inline", "fork"],
        default="auto",
        help="shard transport: forked workers or an in-process "
        "round-robin (default auto)",
    )
    cluster.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable barrier elision: one shard exchange per lookahead "
        "window (execution shape only — bytes are identical either way; "
        "the escape hatch CI's differential compares against)",
    )
    cluster.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="journal barrier-aligned ckpt/1 checkpoints to DIR and arm "
        "in-run worker recovery (needs --shards >= 2)",
    )
    cluster.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="barriers between checkpoint writes (default 8)",
    )
    cluster.add_argument(
        "--restore", action="store_true",
        help="resume from the newest usable checkpoint in "
        "--checkpoint-dir (an empty directory starts fresh)",
    )
    cluster.add_argument(
        "--kill-worker", metavar="SHARD@BARRIER", default=None,
        help="crash-recovery testing: SIGKILL shard SHARD's worker when "
        "the run reaches barrier BARRIER (fork backend)",
    )

    profile = command(
        "profile", _cmd_profile, seed, as_json, shards,
        help="profile a cluster preset or scenario run: per-layer time "
        "buckets (kernel/mailbox/barrier/fabric/model), a hot-spot "
        "table, and flamegraph-ready collapsed stacks; a sharded run "
        "uses the inline backend, so the profiler sees the workers",
    )
    profile.add_argument(
        "target",
        nargs="?",
        default="cluster_smoke",
        help="cluster preset or scenario name (default cluster_smoke)",
    )
    profile.add_argument(
        "--sim-s", type=float, default=None,
        help="override the target's simulated duration",
    )
    profile.add_argument(
        "--top", type=int, default=25,
        help="hot-spot table length (default 25)",
    )
    profile.add_argument(
        "--memory", action="store_true",
        help="also trace allocations (tracemalloc; slower) and report "
        "peak size plus top allocation sites",
    )
    profile.add_argument(
        "--collapsed", metavar="PATH", default=None,
        help="write flamegraph.pl/speedscope collapsed stacks to PATH",
    )

    serve = command(
        "serve", _cmd_serve, seed,
        help="run the ResEx service gateway (live wall-clock epochs or "
        "deterministic sim) until SIGTERM/SIGINT",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7741, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--mode",
        choices=["live", "sim"],
        default="live",
        help="clock policy: live wall-clock epochs, or sim virtual time "
        "stepped from request at_ns offsets (default live)",
    )
    serve.add_argument(
        "--slots", type=int, default=8, help="admission capacity (guest slots)"
    )
    serve.add_argument("--policy", default="freemarket")
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="per-client request queue depth before overload rejection",
    )
    serve.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="on SIGTERM/SIGINT, drain the gateway and write a "
        "digest-stamped snapshot of the served world to PATH",
    )
    serve.add_argument(
        "--restore",
        metavar="PATH",
        help="start from a world snapshot written by --checkpoint "
        "(overrides --slots/--policy/--seed with the snapshot's own)",
    )

    loadgen = command(
        "loadgen", _cmd_loadgen, seed, as_json,
        help="fire a seeded open-loop synthetic load at a running "
        "service gateway and print the response-log digest",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7741)
    loadgen.add_argument("--requests", type=int, default=1000)
    loadgen.add_argument(
        "--vms", type=int, default=4, help="tenants admitted up front"
    )
    loadgen.add_argument(
        "--arrivals",
        choices=["constant", "bursty", "diurnal"],
        default="constant",
        help="open-loop arrival process (default constant-rate Poisson)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=20_000.0,
        help="mean arrival rate in requests/s of virtual time",
    )
    loadgen.add_argument(
        "--window",
        type=int,
        default=64,
        help="max requests in flight on the connection",
    )
    loadgen.add_argument(
        "--retries",
        type=int,
        default=25,
        help="connection attempts before giving up (covers racing a "
        "server that is still binding)",
    )

    trace = command(
        "trace", _cmd_trace, workload, seed,
        help="run a scenario with full-stack tracing and write a Chrome "
        "trace-event JSON file",
    )
    trace.add_argument(
        "scenario",
        choices=sorted(TRACE_PRESETS),
        help="traced scenario preset (fig1 = interfered + ioshares)",
    )
    trace.add_argument(
        "-o", "--output", help="output file (default trace-<scenario>.json)"
    )
    trace.add_argument(
        "--csv", action="store_true", help="also write a flat CSV of records"
    )
    trace.add_argument(
        "--kernel-events",
        action="store_true",
        help="include the per-event kernel dispatch firehose (large!)",
    )
    trace.add_argument("--sim-s", type=float, default=0.2)

    from repro.faults.presets import campaign_presets

    chaos = command(
        "chaos", _cmd_chaos, workload, seed, guards, as_json,
        help="run a scenario under a fault-injection campaign and print "
        "a resilience report",
    )
    chaos.add_argument(
        "scenario",
        help="chaos scenario preset (fig9 = interfered + ioshares; also "
        "fig9-static, fig9-freemarket, interfered, base)",
    )
    chaos.add_argument(
        "--campaign",
        choices=campaign_presets(),
        default="link-flap",
        help="fault campaign preset (default link-flap)",
    )
    chaos.add_argument(
        "--dry-run",
        action="store_true",
        help="print the campaign schedule without running the scenario",
    )
    chaos.add_argument(
        "--compare",
        action="store_true",
        help="run every managed scenario variant under the same campaign "
        "and print the per-policy degradation table (text only)",
    )
    chaos.add_argument(
        "--trace", metavar="FILE", help="also write a Chrome trace-event file"
    )
    chaos.add_argument("--sim-s", type=float, default=1.5)

    command("policies", _cmd_policies, help="list registered pricing policies")

    report = command(
        "report", _cmd_report, seed, workers,
        help="run everything and write a markdown report",
    )
    report.add_argument("-o", "--output", help="output file (default stdout)")
    report.add_argument("--scale", choices=["fast", "full"], default=None)
    report.add_argument(
        "--no-ablations", action="store_true", help="figures only"
    )

    sweep = command(
        "sweep", _cmd_sweep, workload, guards, as_json, workers,
        help="replicate a scenario (or chaos campaign) across seeds "
        "through the parallel sweep engine",
        description=(
            "Fan independent (scenario, seed) cells out to a process pool "
            "and aggregate the results.  Parallel equals serial bit for "
            "bit: results merge in submission order and every cell is a "
            "self-contained seeded simulation.  With --cache-dir, cells "
            "already computed for this package version are served from "
            "the content-addressed result cache."
        ),
    )
    sweep.add_argument(
        "name",
        nargs="?",
        default="sweep",
        help="scenario label; with --campaign, a chaos preset name "
        "(e.g. fig9)",
    )
    sweep.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=list(range(8)),
        help="seed spec: count ('8' = seeds 0..7), range ('3:7') or "
        "explicit list ('1,5,9'); default 8",
    )
    sweep.add_argument(
        "--cache-dir",
        help="content-addressed result cache directory (created on demand)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and recompute everything",
    )
    sweep.add_argument(
        "--campaign",
        help="sweep a chaos scenario under this fault campaign preset "
        "instead of a plain scenario",
    )
    sweep.add_argument("--sim-s", type=float, default=1.0)
    supervise = sweep.add_argument_group(
        "supervision",
        "watchdogs, retries and checkpoint/resume (repro.supervise); "
        "every state transition is appended to "
        "<run-dir>/<run-id>/manifest.jsonl, so a killed sweep resumes "
        "with --resume <run-id> to a byte-identical report",
    )
    supervise.add_argument(
        "--supervise",
        action="store_true",
        help="run cells under the supervised runtime",
    )
    supervise.add_argument(
        "--run-dir",
        default="runs",
        help="campaign directory holding per-run manifests (default runs/)",
    )
    supervise.add_argument(
        "--run-id",
        help="explicit run identifier (default: a fresh timestamped id)",
    )
    supervise.add_argument(
        "--resume",
        metavar="RUN_ID",
        help="resume an interrupted run from its manifest (implies "
        "--supervise); completed cells are served from the ledger",
    )
    supervise.add_argument(
        "--retry-quarantined",
        action="store_true",
        help="with --resume, give quarantined cells a fresh retry budget",
    )
    supervise.add_argument(
        "--timeout-s",
        type=float,
        default=0.0,
        help="per-cell wall-clock budget; 0 disables (default)",
    )
    supervise.add_argument(
        "--stall-s",
        type=float,
        default=0.0,
        help="kill a cell whose simulation makes no event progress for "
        "this long; 0 disables (default)",
    )
    supervise.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per failed cell before quarantine (default 1)",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quiet and args.verbose:
        parser.error("--quiet and --verbose are mutually exclusive")
    configure_logging(quiet=args.quiet, verbose=args.verbose)
    try:
        return args.func(args)
    except ReproError as exc:
        # The one place errors become exit codes (see repro.errors):
        # config 2, sweep 3, invariant 4, cache/checkpoint 5, service 6.
        print(f"repro: error [{exc.code}]: {exc}", file=sys.stderr)
        if isinstance(exc, SweepError) and getattr(args, "json", False):
            _emit(
                {
                    "error": str(exc).splitlines()[0],
                    "code": exc.code,
                    "cell_errors": [
                        {
                            "label": label,
                            "error": err.splitlines()[0] if err else "",
                        }
                        for label, err in exc.cell_errors
                    ],
                }
            )
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
