"""Experiment harness: canonical testbed, scenarios, per-figure runs.

Every public name is resolved on first access (PEP 562), so a command
loads only the modules it uses: ``from repro.experiments import
build_scenario`` does not import the figure registry, the sweep engine,
the cluster model or the supervisor.
"""

import importlib

#: Public name -> the module that defines it.
_EXPORTS = {
    "ALL_FIGURES": "repro.experiments.figures",
    "FigureResult": "repro.experiments.figures",
    "scale_factor": "repro.experiments.figures",
    "CHAOS_METRICS": "repro.experiments.multiseed",
    "Replication": "repro.experiments.multiseed",
    "sweep_chaos": "repro.experiments.multiseed",
    "sweep_comparison": "repro.experiments.multiseed",
    "sweep_scenario": "repro.experiments.multiseed",
    "CLUSTER_SPECS": "repro.experiments.cluster",
    "ClusterResult": "repro.experiments.cluster",
    "ClusterSetup": "repro.experiments.cluster",
    "ClusterSpec": "repro.experiments.cluster",
    "build_cluster": "repro.experiments.cluster",
    "cluster_spec": "repro.experiments.cluster",
    "run_cluster": "repro.experiments.cluster",
    "run_cluster_set": "repro.experiments.suite",
    "run_registry_set": "repro.experiments.suite",
    "run_service_set": "repro.experiments.suite",
    "resume_sweep": "repro.supervise",
    "supervised_sweep": "repro.supervise",
    "Node": "repro.experiments.platform",
    "Testbed": "repro.experiments.platform",
    "CHAOS_SCENARIOS": "repro.experiments.scenarios",
    "REPORTING_SLA": "repro.experiments.scenarios",
    "ChaosResult": "repro.experiments.scenarios",
    "ScenarioResult": "repro.experiments.scenarios",
    "ScenarioSetup": "repro.experiments.scenarios",
    "build_scenario": "repro.experiments.scenarios",
    "default_fault_engine": "repro.experiments.scenarios",
    "run_chaos_scenario": "repro.experiments.scenarios",
    "run_scenario": "repro.experiments.scenarios",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
