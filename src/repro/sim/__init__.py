"""Discrete-event simulation kernel.

A small, deterministic, generator-driven DES in the style of simpy,
with integer-nanosecond time, FIFO/priority resources, stores, probes,
and named RNG streams.
"""

from repro.sim.checkpoint import (
    CheckpointConfig,
    RecoveryPolicy,
    load_checkpoint,
    load_latest,
    save_checkpoint,
)
from repro.sim.core import INFINITY, Environment
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    FirstOf,
    Interrupt,
    Timeout,
)
from repro.sim.monitor import Counter, ProbeSet, TimeSeries, jitter, sampled_mean
from repro.sim.process import Process
from repro.sim.resources import PriorityResource, Request, Resource
from repro.sim.rng import RngRegistry
from repro.sim.shard import (
    Mailbox,
    Message,
    ShardMap,
    ShardStats,
    run_sharded,
    window_boundaries,
)
from repro.sim.store import FilterStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "CheckpointConfig",
    "Condition",
    "ConditionValue",
    "Counter",
    "Environment",
    "Event",
    "FilterStore",
    "FirstOf",
    "INFINITY",
    "Interrupt",
    "Mailbox",
    "Message",
    "PriorityResource",
    "ProbeSet",
    "Process",
    "RecoveryPolicy",
    "Request",
    "Resource",
    "RngRegistry",
    "ShardMap",
    "ShardStats",
    "Store",
    "TimeSeries",
    "Timeout",
    "jitter",
    "load_checkpoint",
    "load_latest",
    "run_sharded",
    "sampled_mean",
    "save_checkpoint",
    "window_boundaries",
]
