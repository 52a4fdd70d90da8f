"""Registry fan-out: run figure/ablation suites through the sweep engine.

The figure and ablation registries are dictionaries of independent
experiment functions — exactly the shape :mod:`repro.parallel` wants.
:func:`run_registry_set` turns a subset of a registry into ``registry``
cells, fans them to ``jobs`` workers and returns the
:class:`~repro.experiments.figures.FigureResult` objects in registry
order.  Registry cells carry arbitrary payloads, so they are fanned
out but never cached (the content-addressed cache only stores float
metric dicts).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.figures import FigureResult
from repro.experiments.multiseed import _check_complete
from repro.parallel import SweepJob, SweepReport, run_sweep

#: Registry names understood by the ``registry`` cell kind.
REGISTRIES = ("figures", "ablations")


def _registry(registry: str) -> Dict[str, object]:
    if registry == "figures":
        from repro.experiments.figures import ALL_FIGURES

        return ALL_FIGURES
    if registry == "ablations":
        from repro.experiments.ablations import ALL_ABLATIONS

        return ALL_ABLATIONS
    raise ConfigError(
        f"unknown experiment registry {registry!r} (have {REGISTRIES})"
    )


def run_registry_set(
    registry: str,
    names: Optional[Sequence[str]] = None,
    *,
    seed: int = 7,
    jobs: int = 1,
    telemetry=None,
) -> Tuple[Dict[str, FigureResult], SweepReport]:
    """Run the named experiments of one registry, possibly in parallel.

    ``names=None`` runs the whole registry.  Results come back as an
    insertion-ordered dict matching the registry (or ``names``) order
    regardless of which worker finished first.  The current
    ``REPRO_SCALE`` is pinned into each cell spec so workers apply the
    same scale even under a spawn start method.
    """
    table = _registry(registry)
    if names is None:
        names = list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ConfigError(
            f"unknown experiments {unknown} in registry {registry!r}"
        )
    spec: Dict[str, object] = {"registry": registry}
    scale = os.environ.get("REPRO_SCALE")
    if scale:
        spec["scale"] = scale
    cells = [SweepJob("registry", name, int(seed), dict(spec)) for name in names]
    result = run_sweep(cells, workers=jobs, telemetry=telemetry)
    _check_complete(result, registry)
    return (
        {name: cell.payload for name, cell in zip(names, result.cells)},
        result.report,
    )


def run_cluster_set(
    names: Optional[Sequence[str]] = None,
    *,
    seed: int = 7,
    jobs: int = 1,
    sim_s: Optional[float] = None,
    telemetry=None,
) -> Tuple[Dict[str, Dict[str, float]], SweepReport]:
    """Run cluster-scale presets as ``cluster`` cells.

    ``names=None`` runs every :data:`~repro.experiments.cluster.
    CLUSTER_SPECS` preset.  Cluster cells return float metric dicts,
    so — unlike registry cells — they are content-addressed cacheable.
    """
    from repro.experiments.cluster import CLUSTER_SPECS

    if names is None:
        names = list(CLUSTER_SPECS)
    unknown = [n for n in names if n not in CLUSTER_SPECS]
    if unknown:
        raise ConfigError(
            f"unknown cluster presets {unknown} (have {sorted(CLUSTER_SPECS)})"
        )
    spec: Dict[str, object] = {}
    if sim_s is not None:
        spec["sim_s"] = float(sim_s)
    cells = [SweepJob("cluster", name, int(seed), dict(spec)) for name in names]
    result = run_sweep(cells, workers=jobs, telemetry=telemetry)
    _check_complete(result, "cluster")
    return (
        {name: cell.metrics for name, cell in zip(names, result.cells)},
        result.report,
    )


def run_service_set(
    names: Optional[Sequence[str]] = None,
    *,
    seed: int = 7,
    jobs: int = 1,
    requests: Optional[int] = None,
    telemetry=None,
) -> Tuple[Dict[str, Dict[str, float]], SweepReport]:
    """Run service-replay presets as ``service`` cells.

    ``names=None`` runs every :data:`~repro.service.replay.
    SERVICE_SPECS` preset (the ``service_replay`` scenario family).
    Service cells are deterministic in-process replays of the ResEx
    gateway's sim backend, return float metric dicts — including the
    response-log ``digest48`` — and are content-addressed cacheable.
    """
    from repro.service.replay import SERVICE_SPECS

    if names is None:
        names = list(SERVICE_SPECS)
    unknown = [n for n in names if n not in SERVICE_SPECS]
    if unknown:
        raise ConfigError(
            f"unknown service presets {unknown} (have {sorted(SERVICE_SPECS)})"
        )
    spec: Dict[str, object] = {}
    if requests is not None:
        spec["requests"] = int(requests)
    cells = [SweepJob("service", name, int(seed), dict(spec)) for name in names]
    result = run_sweep(cells, workers=jobs, telemetry=telemetry)
    _check_complete(result, "service")
    return (
        {name: cell.metrics for name, cell in zip(names, result.cells)},
        result.report,
    )
