"""Multi-seed replication: confidence intervals for scenario outcomes.

One deterministic run is a single sample of the (seeded) stochastic
workload.  For robustness claims — "IOShares keeps the victim within X
of base" — replicate the scenario across seeds and report the spread.

Replication is embarrassingly parallel, so every helper here runs
through the :mod:`repro.parallel` engine: ``jobs=`` fans the seeds out
to a process pool, ``cache=`` short-circuits cells already computed
for this package version.  Serial (``jobs=1``) and parallel execution
produce **bit-identical** :class:`Replication` values — cells merge in
submission order and each cell is a self-contained seeded simulation.

Every ``sweep_*`` helper returns the folded
:class:`~repro.parallel.SweepReport` alongside the statistics and raises
:class:`~repro.errors.SweepError` if any cell failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# The cells submitted here run scenarios.  Loading their module before
# the pool forks lets every worker inherit it, where a worker that
# imported it itself would pay for that on every sweep.
import repro.experiments.scenarios  # noqa: F401
from repro.errors import ConfigError, SweepError
from repro.parallel import SweepJob, SweepReport, SweepResult, run_sweep


@dataclass(frozen=True)
class Replication:
    """Aggregate of one metric across seeds.

    Chaos series may legitimately contain ``inf`` (``worst_ttr_ms``
    when a fault window never healed).  Order statistics (`median`,
    `percentile`, `minimum`, `maximum`) are taken over the full
    series; the moment statistics (`std`, `ci95_halfwidth`) are
    computed over the *finite* subsample and reported next to
    :attr:`n_nonfinite` rather than silently propagating ``inf``/NaN.
    """

    name: str
    seeds: tuple
    values: tuple

    @property
    def mean(self) -> float:
        """Mean over the full series — ``inf`` stays honest here."""
        return float(np.mean(self.values))

    @property
    def finite_values(self) -> tuple:
        """The finite subsample (moment statistics are taken on it)."""
        return tuple(v for v in self.values if math.isfinite(v))

    @property
    def n_nonfinite(self) -> int:
        """How many samples are ``inf``/NaN (e.g. never-recovered runs)."""
        return len(self.values) - len(self.finite_values)

    @property
    def finite_mean(self) -> float:
        """Mean of the finite subsample (NaN when nothing is finite)."""
        finite = self.finite_values
        return float(np.mean(finite)) if finite else float("nan")

    @property
    def std(self) -> float:
        """Sample std (ddof=1) of the finite subsample."""
        finite = self.finite_values
        return float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))

    @property
    def maximum(self) -> float:
        return float(np.max(self.values))

    @property
    def median(self) -> float:
        """Median of the full series (robust to a minority of infs)."""
        return float(np.median(self.values))

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) of the full series."""
        if not 0.0 <= p <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        return float(np.percentile(self.values, p))

    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean.

        Computed over the finite subsample; NaN when fewer than two
        finite samples exist.  Check :attr:`n_nonfinite` to see how
        many samples the interval excludes.
        """
        finite = self.finite_values
        n = len(finite)
        if n < 2:
            return float("nan")
        return 1.96 * self.std / np.sqrt(n)

    def __repr__(self) -> str:
        suffix = (
            f" [{self.n_nonfinite} non-finite]" if self.n_nonfinite else ""
        )
        center = self.finite_mean if self.n_nonfinite else self.mean
        return (
            f"<Replication {self.name!r} {center:.1f} "
            f"+/- {self.ci95_halfwidth():.1f} (n={len(self.values)}){suffix}>"
        )


def _check_complete(result: SweepResult, what: str) -> None:
    failures = result.failed()
    if failures:
        details = [(c.job.label, c.error or "") for c in failures]
        summary = "; ".join(
            f"{label}: {err.splitlines()[0] if err else 'unknown'}"
            for label, err in details
        )
        raise SweepError(
            f"{len(failures)}/{len(result.cells)} {what} cells failed: "
            f"{summary}",
            cell_errors=details,
        )


def sweep_scenario(
    name: str,
    seeds: Sequence[int],
    *,
    jobs: int = 1,
    cache=None,
    telemetry=None,
    **scenario_kwargs,
) -> Tuple[Replication, SweepReport]:
    """Replicate one scenario across ``seeds`` through the sweep engine.

    Returns the :class:`Replication` of the mean server-side total
    latency (us) plus the engine's :class:`SweepReport`.  ``jobs`` fans
    the seeds out to a process pool; ``cache`` (a directory or
    :class:`~repro.parallel.ResultCache`) reuses cells already computed
    for this package version.  Both knobs change only wall-clock time,
    never values.
    """
    if not seeds:
        raise ConfigError("at least one seed is required")
    cells = [
        SweepJob("scenario", name, int(seed), dict(scenario_kwargs))
        for seed in seeds
    ]
    result = run_sweep(cells, workers=jobs, cache=cache, telemetry=telemetry)
    _check_complete(result, "scenario")
    return (
        Replication(
            name=name,
            seeds=tuple(seeds),
            values=result.values("total_mean"),
        ),
        result.report,
    )


def sweep_comparison(
    seeds: Sequence[int],
    configurations: Dict[str, dict],
    *,
    jobs: int = 1,
    cache=None,
    telemetry=None,
) -> Tuple[Dict[str, Replication], SweepReport]:
    """Replicate several configurations over the same seeds, in one
    sweep — all (configuration, seed) cells share a single pool, so
    the fan-out is ``len(configurations) * len(seeds)`` wide.
    ``configurations`` maps a label to run_scenario keyword arguments.
    """
    if not seeds:
        raise ConfigError("at least one seed is required")
    cells: List[SweepJob] = []
    for label, kwargs in configurations.items():
        for seed in seeds:
            cells.append(SweepJob("scenario", label, int(seed), dict(kwargs)))
    result = run_sweep(cells, workers=jobs, cache=cache, telemetry=telemetry)
    _check_complete(result, "comparison")
    n = len(seeds)
    out: Dict[str, Replication] = {}
    for i, label in enumerate(configurations):
        block = result.cells[i * n:(i + 1) * n]
        out[label] = Replication(
            name=label,
            seeds=tuple(seeds),
            values=tuple(c.metrics["total_mean"] for c in block),
        )
    return out, result.report


#: Resilience metrics :func:`sweep_chaos` aggregates per seed.
CHAOS_METRICS = ("excursion_us_s", "worst_ttr_ms", "recovered")


def sweep_chaos(
    name: str,
    seeds: Sequence[int],
    *,
    campaign: str,
    jobs: int = 1,
    cache=None,
    telemetry=None,
    **chaos_kwargs,
) -> Tuple[Dict[str, Replication], SweepReport]:
    """Replicate a chaos scenario across seeds; aggregate resilience.

    Runs :func:`~repro.experiments.scenarios.run_chaos_scenario` once
    per seed (the campaign preset is rebuilt per seed, so stochastic
    campaigns vary while scripted ones repeat) and returns one
    :class:`Replication` per metric in :data:`CHAOS_METRICS`, plus the
    engine's :class:`SweepReport`:

    * ``excursion_us_s`` — total latency-excursion area of the run;
    * ``worst_ttr_ms`` — slowest recovery (``inf`` when a fault window
      never healed; the mean stays honest about non-recovery while
      ``std``/``ci95_halfwidth`` report the finite subsample next to
      :attr:`Replication.n_nonfinite`);
    * ``recovered`` — 1.0/0.0 indicator that every window healed.
    """
    if not seeds:
        raise ConfigError("at least one seed is required")
    spec = dict(chaos_kwargs)
    spec["campaign"] = campaign
    cells = [SweepJob("chaos", name, int(seed), spec) for seed in seeds]
    result = run_sweep(cells, workers=jobs, cache=cache, telemetry=telemetry)
    _check_complete(result, "chaos")
    out = {
        metric: Replication(
            name=f"{name}/{metric}",
            seeds=tuple(seeds),
            values=result.values(metric),
        )
        for metric in CHAOS_METRICS
    }
    return out, result.report
