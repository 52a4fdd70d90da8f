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
