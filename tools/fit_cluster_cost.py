"""Refit the per-domain cost model of :mod:`repro.experiments.cluster`.

The shard partition weighs each cluster domain by
``predicted_domain_events``.  This script measures the real per-domain
event counts on the model's documented grid -- every preset, one domain
per shard, 0.02, 0.05 and 0.1 simulated seconds, seeds 7 and 101 -- and
fits the four coefficients to them.  The flow term (``_FLOW_EVENTS``
per background flow) is kept.  The rack, stack and coordinator rates
are linear and solved by least squares on the relative residuals for
each stack deploy delay on a 0.5 ms grid; the delay kept is the one
whose fit balances the measured events of the grid's 2- and 4-shard
partitions best, ties broken by the worst share error.

It prints the fitted coefficients (rounded to three significant
figures, as committed), then for the current and the fitted model the
worst predicted/measured share error over the grid, the summed shard
imbalance and the 2- and 4-shard partition of each preset.

Usage::

    PYTHONPATH=src python tools/fit_cluster_cost.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.experiments import cluster
from repro.experiments.cluster import CLUSTER_SPECS, run_cluster
from repro.sim.shard import ShardMap

SIM_S = (0.02, 0.05, 0.1)
SEEDS = (7, 101)
COEFFS = (
    "_RACK_EVENTS_PER_S",
    "_STACK_EVENTS_PER_S",
    "_STACK_DEPLOY_S",
    "_COORDINATOR_EVENTS_PER_RACK_S",
)


def measure():
    """``[(preset, sim_s, seed, events_per_domain)]`` over the grid."""
    rows = []
    for name, spec in sorted(CLUSTER_SPECS.items()):
        n_domains = spec.domain_plan().n_domains
        for sim_s in SIM_S:
            for seed in SEEDS:
                stats = run_cluster(
                    spec, seed=seed, sim_s=sim_s, shards=n_domains,
                    backend="inline",
                ).shard_stats
                rows.append((name, sim_s, seed, tuple(stats.events_per_shard)))
                print(f"measured {name} {sim_s} s seed {seed}", file=sys.stderr)
    return rows


def terms(spec, sim_s, deploy_s):
    """Per domain: the flow events and the multipliers of the rack,
    stack and coordinator rates (the model of
    ``predicted_domain_events``)."""
    plan = spec.domain_plan()
    n_racks, rack_hosts = spec.n_racks, spec.rack_hosts
    base, rem = divmod(spec.n_flows, n_racks)
    out = []
    for d in range(plan.n_domains):
        hosts = plan.hosts_of(d)
        racks = range(hosts[0] // rack_hosts, hosts[-1] // rack_hosts + 1)
        flows = cluster._FLOW_EVENTS * sum(base + (r < rem) for r in racks)
        rack = stack = coord = 0.0
        if spec.with_resex:
            rack = sim_s * len(racks)
            if 0 in racks:
                stack = max(sim_s - deploy_s, 0.0)
                coord = sim_s * (n_racks - 1)
        out.append((flows, rack, stack, coord))
    return out


def fit(rows):
    """The four coefficients, rounded.  For each deploy delay on the
    grid the three rates are solved by least squares on the relative
    residuals; the delay kept is the one whose fit balances the grid's
    2- and 4-shard partitions best (what the shard map is for), ties
    broken by the smaller worst share error."""
    best = None
    for deploy_s in np.arange(0.0, 0.02001, 0.0005):
        a, b = [], []
        for name, sim_s, _seed, events in rows:
            spec = CLUSTER_SPECS[name]
            for (flows, *x), y in zip(terms(spec, sim_s, deploy_s), events):
                a.append([v / y for v in x])
                b.append((y - flows) / y)
        coef, *_ = np.linalg.lstsq(np.array(a), np.array(b), rcond=None)
        candidate = tuple(
            _round3(float(v))
            for v in (coef[0], coef[1], deploy_s, coef[2])
        )
        _set(candidate)
        score = (round(imbalance(rows), 9), worst_share_error(rows)[0])
        if best is None or score < best[0]:
            best = (score, candidate)
    return best[1]


def _set(values) -> None:
    for name, value in zip(COEFFS, values):
        setattr(cluster, name, value)


def _round3(x: float) -> float:
    """``x`` rounded to three significant figures."""
    if x == 0.0:
        return 0.0
    digits = 2 - int(math.floor(math.log10(abs(x))))
    return round(x, digits)


def worst_share_error(rows):
    """``(error, where)``: the largest ``|predicted share / measured
    share - 1|`` over every run and domain of the grid."""
    worst = (0.0, None)
    for name, sim_s, seed, events in rows:
        predicted = cluster.predicted_domain_events(CLUSTER_SPECS[name], sim_s)
        for d, (p, m) in enumerate(zip(predicted, events)):
            err = abs((p / sum(predicted)) / (m / sum(events)) - 1.0)
            if err > worst[0]:
                worst = (err, f"{name} domain {d}, {sim_s} s, seed {seed}")
    return worst


def imbalance(rows) -> float:
    """Summed over the grid's runs and 2- and 4-shard maps: how far the
    busiest shard's measured events exceed the mean (0 is perfect)."""
    total = 0.0
    for name, sim_s, _seed, events in rows:
        weights = cluster.predicted_domain_events(CLUSTER_SPECS[name], sim_s)
        for shards in (2, 4):
            smap = ShardMap(len(events), shards, weights=weights)
            load = [
                sum(events[d] for d in smap.domains_of(s)) for s in range(shards)
            ]
            total += max(load) * shards / sum(load) - 1.0
    return total


def partitions():
    """The 2- and 4-shard domain split of every preset, at its own
    ``sim_s`` and at each of the grid's."""
    out = {}
    for name, spec in sorted(CLUSTER_SPECS.items()):
        n = spec.domain_plan().n_domains
        for sim_s in (spec.sim_s, *SIM_S):
            weights = cluster.predicted_domain_events(spec, sim_s)
            for shards in (2, 4):
                smap = ShardMap(n, shards, weights=weights)
                out[name, sim_s, shards] = [
                    smap.domains_of(s) for s in range(shards)
                ]
    return out


def report(label, rows):
    err, where = worst_share_error(rows)
    values = ", ".join(f"{c} = {getattr(cluster, c)!r}" for c in COEFFS)
    print(f"{label}: {values}")
    print(f"  worst share error {err:.1%} ({where})")
    print(f"  summed shard imbalance {imbalance(rows):.4f}")
    parts = partitions()
    for (name, sim_s, shards), split in parts.items():
        spans = [(s[0], s[-1]) for s in split]
        print(f"  {name} at {sim_s} s, {shards} shards: {spans}")
    return parts


def main() -> int:
    rows = measure()
    before = report("current", rows)
    _set(fit(rows))
    after = report("fitted", rows)
    moved = [key for key in before if before[key] != after[key]]
    print(f"partitions changed: {moved or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
