"""Experiment harness: canonical testbed, scenarios, per-figure runs."""

from repro.experiments.figures import ALL_FIGURES, FigureResult, scale_factor
from repro.experiments.multiseed import (
    CHAOS_METRICS,
    Replication,
    sweep_chaos,
    sweep_comparison,
    sweep_scenario,
)
from repro.experiments.cluster import (
    CLUSTER_SPECS,
    ClusterResult,
    ClusterSetup,
    ClusterSpec,
    build_cluster,
    cluster_spec,
    run_cluster,
)
from repro.experiments.suite import (
    run_cluster_set,
    run_registry_set,
    run_service_set,
)
from repro.supervise import resume_sweep, supervised_sweep
from repro.experiments.platform import Node, Testbed
from repro.experiments.scenarios import (
    CHAOS_SCENARIOS,
    REPORTING_SLA,
    ChaosResult,
    ScenarioResult,
    ScenarioSetup,
    build_scenario,
    default_fault_engine,
    run_chaos_scenario,
    run_scenario,
)

__all__ = [
    "ALL_FIGURES",
    "CHAOS_METRICS",
    "CHAOS_SCENARIOS",
    "CLUSTER_SPECS",
    "ChaosResult",
    "ClusterResult",
    "ClusterSetup",
    "ClusterSpec",
    "FigureResult",
    "Node",
    "REPORTING_SLA",
    "Replication",
    "ScenarioResult",
    "ScenarioSetup",
    "Testbed",
    "build_cluster",
    "build_scenario",
    "cluster_spec",
    "default_fault_engine",
    "resume_sweep",
    "run_chaos_scenario",
    "run_cluster",
    "run_cluster_set",
    "run_registry_set",
    "run_scenario",
    "run_service_set",
    "scale_factor",
    "supervised_sweep",
    "sweep_chaos",
    "sweep_comparison",
    "sweep_scenario",
]
