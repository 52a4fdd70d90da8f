"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they vary one mechanism at a time
— out-of-Resos action, Reso share weighting, completion mode, IBMon
sampling cadence, policy reaction time, link model — and report how the
canonical 64KB-vs-2MB outcome changes.  Each has a bench under
``benchmarks/test_ablation_*.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import numpy as np

from repro.benchex import INTERFERER_2MB, BenchExConfig, BenchExPair, run_pairs
from repro.experiments.figures import FigureResult, scale_factor
from repro.experiments.platform import Testbed
from repro.experiments.scenarios import REPORTING_SLA, run_scenario
from repro.ibmon import IBMon
from repro.resex import FreeMarket, IOShares
from repro.units import MS, SEC, US


def ablation_depletion_modes(seed: int = 7) -> FigureResult:
    """What should happen when a VM runs out of Resos?  (§VI-B's
    'beyond the scope' choice, made executable.)"""
    sim_s = 1.5 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for mode in ("gradual", "hard", "proportional"):
        res = run_scenario(
            f"dep-{mode}",
            interferer=INTERFERER_2MB,
            policy=FreeMarket(depletion_mode=mode),
            sim_s=sim_s,
            seed=seed,
        )
        _, caps = res.probe_series[f"resex.dom{res.interferer_domid}.cap"]
        rows.append(
            [
                mode,
                res.breakdown.total_mean,
                res.breakdown.total_std,
                float(np.min(caps)),
                float(np.mean(caps)),
            ]
        )
        extra[mode] = {
            "mean_us": res.breakdown.total_mean,
            "cap_mean": float(np.mean(caps)),
        }
    return FigureResult(
        figure="Ablation",
        title="FreeMarket out-of-Resos action (victim latency, us)",
        headers=["mode", "total", "±", "intf cap min", "intf cap mean"],
        rows=rows,
        extra=extra,
    )


def ablation_weighted_shares(seed: int = 7) -> FigureResult:
    """Priority-weighted Reso distribution (§V-C's unequal shares)."""
    sim_s = 1.5 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for label, weights in (
        ("1:1", None),
        ("3:1", {"reporting": 3.0, "interferer": 1.0}),
        ("9:1", {"reporting": 9.0, "interferer": 1.0}),
    ):
        res = run_scenario(
            f"w-{label}",
            interferer=INTERFERER_2MB,
            policy=FreeMarket(),
            sim_s=sim_s,
            seed=seed,
            reso_weights=weights,
        )
        _, resos = res.probe_series[f"resex.dom{res.interferer_domid}.resos"]
        rows.append(
            [label, res.breakdown.total_mean, res.breakdown.total_std, float(resos[0])]
        )
        extra[label] = res.breakdown.total_mean
    return FigureResult(
        figure="Ablation",
        title="Reso share weighting reporting:interferer (victim latency, us)",
        headers=["weights", "total", "±", "intf allocation"],
        rows=rows,
        notes="higher victim priority starves the interferer earlier each epoch",
        extra=extra,
    )


def ablation_completion_mode(seed: int = 7) -> FigureResult:
    """Busy-polling is the reason CPU caps throttle I/O: an event-driven
    interferer needs almost no CPU, so the cap lever loses its grip."""
    sim_s = 1.0 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for intf_mode in ("poll", "event"):
        for cap in (100, 10):
            bed = Testbed.paper_testbed(seed=seed)
            s, c = bed.node("server-host"), bed.node("client-host")
            rep = BenchExPair(
                bed, s, c, BenchExConfig(name="rep", warmup_requests=50)
            )
            intf = BenchExPair(
                bed, s, c, replace(INTERFERER_2MB, completion_mode=intf_mode)
            )
            s.hypervisor.set_cap(intf.server_dom.domid, cap)
            run_pairs(bed, [rep, intf], until_ns=int(sim_s * SEC))
            lat = rep.server.latencies_us()
            cpu = intf.server_dom.vcpu.cumulative_ns / bed.env.now * 100
            label = f"{intf_mode}/cap{cap}"
            rows.append([label, float(lat.mean()), float(lat.std()), cpu])
            extra[label] = float(lat.mean())
    return FigureResult(
        figure="Ablation",
        title="Interferer completion mode vs the CPU-cap lever (victim latency, us)",
        headers=["intf mode/cap", "total", "±", "intf CPU %"],
        rows=rows,
        notes=(
            "a hard cap tames a busy-polling interferer but barely dents an "
            "event-driven one — ResEx's actuator presumes poll-mode guests"
        ),
        extra=extra,
    )


def ablation_sampling_interval(seed: int = 7) -> FigureResult:
    """IBMon sampling cadence: estimate quality and policy outcome."""
    sim_s = 1.0 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for interval_us in (100, 250, 1000, 5000):
        bed = Testbed.paper_testbed(seed=seed)
        s, c = bed.node("server-host"), bed.node("client-host")
        rep = BenchExPair(
            bed, s, c, BenchExConfig(name="rep", warmup_requests=50),
            with_agent=True,
        )
        intf = BenchExPair(bed, s, c, INTERFERER_2MB)
        from repro.resex import ResExController

        ibmon = IBMon(s, sample_interval_ns=interval_us * 1000)
        ctl = ResExController(s, IOShares(), ibmon=ibmon)
        ctl.monitor(rep.server_dom, agent=rep.agent, sla=REPORTING_SLA)
        ctl.monitor(intf.server_dom)
        ctl.start()
        run_pairs(bed, [rep, intf], until_ns=int(sim_s * SEC))
        lat = rep.server.latencies_us()
        rows.append([f"{interval_us}us", float(lat.mean()), float(lat.std())])
        extra[str(interval_us)] = float(lat.mean())
    return FigureResult(
        figure="Ablation",
        title="IBMon sampling interval vs IOShares outcome (victim latency, us)",
        headers=["sample interval", "total", "±"],
        rows=rows,
        notes="counts come from producer indices, so coarse sampling degrades gracefully",
        extra=extra,
    )


def ablation_reaction_time(seed: int = 7) -> FigureResult:
    """How fast does each policy react to interferer onset?"""
    sim_s = 2.0 * scale_factor()
    onset_s = 0.5
    rows = []
    extra: Dict[str, object] = {}
    for label, policy in (
        ("freemarket", FreeMarket()),
        ("ioshares", IOShares()),
        ("static-ratio", "static-ratio"),
    ):
        res = run_scenario(
            f"onset-{label}",
            interferer=INTERFERER_2MB,
            policy=policy,
            interferer_start_s=onset_s,
            sim_s=sim_s,
            seed=seed,
        )
        cap_t, cap_v = res.probe_series[
            f"resex.dom{res.interferer_domid}.cap"
        ]
        capped = cap_t[np.asarray(cap_v) < 100]
        reaction_ms = (
            (capped[0] - onset_s * SEC) / 1e6 if capped.size else float("inf")
        )
        tail = [v for t, v in res.samples if t > (onset_s + 0.8) * SEC]
        rows.append(
            [
                label,
                reaction_ms,
                float(np.mean(tail)) if tail else float("nan"),
            ]
        )
        extra[label] = {
            "reaction_ms": reaction_ms,
            "settled_mean_us": float(np.mean(tail)) if tail else float("nan"),
        }
    return FigureResult(
        figure="Ablation",
        title="Policy reaction to interferer onset at t=0.5s",
        headers=["policy", "first-cap reaction (ms)", "settled latency (us)"],
        rows=rows,
        extra=extra,
    )


def ablation_link_models(seed: int = 7) -> FigureResult:
    """Fluid vs exact per-MTU packet link: completion-time agreement."""
    from repro.hw import FluidFabric, PacketLink
    from repro.sim import Environment
    from repro.units import GiB, KiB

    gb = float(GiB)
    rows = []
    worst_err = 0.0
    cases = [
        ("2 equal 64KB", [64 * KiB, 64 * KiB]),
        ("64KB vs 512KB", [512 * KiB, 64 * KiB]),
        ("4-way mix", [32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB]),
        ("8 small", [16 * KiB] * 8),
    ]
    for label, sizes in cases:
        penv = Environment()
        plink = PacketLink(penv, gb, mtu_bytes=1 * KiB)
        dones = [plink.submit(s, str(i)) for i, s in enumerate(sizes)]
        penv.run(until=penv.all_of(dones))
        packet_ns = penv.now

        fenv = Environment()
        fabric = FluidFabric(fenv)
        link = fabric.add_link("l", gb)
        transfers = [fabric.submit([link], s, str(i)) for i, s in enumerate(sizes)]
        fenv.run(until=fenv.all_of([t.done for t in transfers]))
        fluid_ns = fenv.now

        err_pct = 100.0 * abs(packet_ns - fluid_ns) / packet_ns
        worst_err = max(worst_err, err_pct)
        rows.append(
            [label, packet_ns / 1000.0, fluid_ns / 1000.0, err_pct]
        )
    return FigureResult(
        figure="Ablation",
        title="Fluid vs exact packet link: total completion time (us)",
        headers=["workload", "packet (us)", "fluid (us)", "error %"],
        rows=rows,
        extra={"worst_error_pct": worst_err},
    )


def ablation_actuators(seed: int = 7) -> FigureResult:
    """CPU caps vs hardware rate limits as the congestion actuator.

    Same sensing and pricing (IOShares); the only difference is what
    the controller turns the price into.  The paper's platform lacked
    per-flow HW limits (§I), making the CPU cap its only lever — this
    quantifies what that constraint costs the interferer.
    """
    from repro.resex import HwShares, IOShares, ResExController

    sim_s = 1.5 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for label, policy in (
        ("cpu-caps (IOShares)", IOShares()),
        ("hw-limits (HwShares)", HwShares()),
    ):
        bed = Testbed.paper_testbed(seed=seed)
        s, c = bed.node("server-host"), bed.node("client-host")
        rep = BenchExPair(
            bed, s, c, BenchExConfig(name="rep", warmup_requests=50),
            with_agent=True,
        )
        intf = BenchExPair(bed, s, c, INTERFERER_2MB)
        ctl = ResExController(s, policy)
        ctl.monitor(rep.server_dom, agent=rep.agent, sla=REPORTING_SLA)
        ctl.monitor(intf.server_dom)
        ctl.start()
        run_pairs(bed, [rep, intf], until_ns=int(sim_s * SEC))
        lat = rep.server.latencies_us()
        intf_cpu = intf.server_dom.vcpu.cumulative_ns / bed.env.now * 100
        intf_served = intf.server.requests_served
        rows.append(
            [label, float(lat.mean()), float(lat.std()), intf_cpu, intf_served]
        )
        extra[policy.name] = {
            "victim_mean_us": float(lat.mean()),
            "intf_cpu_pct": intf_cpu,
            "intf_served": intf_served,
        }
    return FigureResult(
        figure="Ablation",
        title="Congestion actuator: CPU cap vs HW rate limit",
        headers=["actuator", "victim mean", "±", "intf CPU %", "intf served"],
        rows=rows,
        notes=(
            "equal victim protection; HW limiting leaves the interferer "
            "its CPU (it spins polling) while capping only its bandwidth"
        ),
        extra=extra,
    )


def ablation_fanin_scaling(seed: int = 7) -> FigureResult:
    """N:1 fan-in: one trading server VM, N client VMs over an SRQ.

    The paper's BenchEx description (§IV) is many clients against one
    exchange server with FCFS semantics; this sweep shows the server
    saturating and per-client latency growing with queue depth.
    """
    from repro.benchex.fanin import BenchExFanIn

    sim_s = 0.5 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for n in (1, 2, 4, 6):
        bed = Testbed.paper_testbed(seed=seed)
        s, c = bed.node("server-host"), bed.node("client-host")
        cfg = BenchExConfig(name=f"fan{n}", warmup_requests=30)
        fan = BenchExFanIn(bed, s, c, cfg, n_clients=n)

        def deploy(env, fan=fan):
            yield from fan.deploy()
            fan.start()

        bed.env.process(deploy(bed.env), name="deploy")
        bed.env.run(until=int(sim_s * SEC))
        lat = fan.client_latencies_us()
        rate = fan.server.requests_served / (bed.env.now / SEC)
        rows.append([n, float(lat.mean()), float(np.percentile(lat, 99)), rate])
        extra[str(n)] = {"mean_us": float(lat.mean()), "rate_hz": rate}
    return FigureResult(
        figure="Ablation",
        title="Fan-in scaling: clients per trading server (client latency, us)",
        headers=["clients", "mean", "p99", "server req/s"],
        rows=rows,
        notes="closed-loop clients: latency ~ N x service time once saturated",
        extra=extra,
    )


def ablation_federation(seed: int = 7) -> FigureResult:
    """Single-host vs federated (both-hosts) ResEx deployment.

    The interferer's inbound requests cross the server host's ingress
    port, which a server-side-only controller cannot throttle; a
    federated deployment prices the interferer's client VM too.
    """
    from repro.resex import (
        IOShares,
        PriceAgent,
        PriceCoordinator,
        RackFollower,
        ResExController,
    )
    from repro.experiments.scenarios import REPORTING_SLA as SLA

    sim_s = 1.5 * scale_factor()
    rows = []
    extra: Dict[str, object] = {}
    for label, federated in (("server-side only", False), ("federated", True)):
        bed = Testbed.paper_testbed(seed=seed)
        s, c = bed.node("server-host"), bed.node("client-host")
        rep = BenchExPair(
            bed, s, c, BenchExConfig(name="rep", warmup_requests=50),
            with_agent=True,
        )
        intf = BenchExPair(bed, s, c, INTERFERER_2MB)
        ctl = ResExController(s, IOShares())
        ctl.monitor(rep.server_dom, agent=rep.agent, sla=SLA)
        ctl.monitor(intf.server_dom)
        ctl.start()
        if federated:
            # The client host manages only the interferer's client VM;
            # the server host's price reaches it one cast (50 us) after
            # each 1 ms sync tick.
            fctl = ResExController(c, RackFollower())
            fctl.monitor(intf.client_dom)
            fctl.start()
            agent = PriceAgent(1, fctl)

            def send(_dst, round_no, price):
                bed.env.timeout(50 * US).callbacks.append(
                    lambda _ev: agent.on_cast(round_no, price)
                )

            PriceCoordinator(bed.env, ctl, 2, MS, send).start()
        run_pairs(bed, [rep, intf], until_ns=int(sim_s * SEC))
        lat = rep.server.latencies_us()
        rows.append([label, float(lat.mean()), float(lat.std())])
        extra[label] = float(lat.mean())
    return FigureResult(
        figure="Ablation",
        title="Single-host vs federated ResEx (victim latency, us)",
        headers=["deployment", "total", "±"],
        rows=rows,
        notes="federation also throttles the interferer's inbound requests",
        extra=extra,
    )


ALL_ABLATIONS = {
    "depletion": ablation_depletion_modes,
    "weights": ablation_weighted_shares,
    "completion": ablation_completion_mode,
    "sampling": ablation_sampling_interval,
    "reaction": ablation_reaction_time,
    "linkmodel": ablation_link_models,
    "fanin": ablation_fanin_scaling,
    "actuators": ablation_actuators,
    "federation": ablation_federation,
}
