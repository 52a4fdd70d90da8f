"""ResEx: congestion-pricing resource management (the paper's core)."""

from repro.resex.controller import MonitoredVM, ResExController
from repro.resex.federation import PriceAgent, PriceCoordinator, RackFollower
from repro.resex.freemarket import FreeMarket
from repro.resex.hwshares import HwShares
from repro.resex.interference import InterferenceDetector, LatencySLA
from repro.resex.ioshares import IOShares
from repro.resex.policy import (
    NoOpPolicy,
    PricingPolicy,
    policy_by_name,
    register_policy,
    registered_policies,
)
from repro.resex.resos import ResoAccount, ResoParams, provision_accounts
from repro.resex.static_ratio import StaticRatio

__all__ = [
    "FreeMarket",
    "HwShares",
    "IOShares",
    "RackFollower",
    "InterferenceDetector",
    "LatencySLA",
    "MonitoredVM",
    "NoOpPolicy",
    "PriceAgent",
    "PriceCoordinator",
    "PricingPolicy",
    "ResExController",
    "ResoAccount",
    "ResoParams",
    "StaticRatio",
    "policy_by_name",
    "provision_accounts",
    "register_policy",
    "registered_policies",
]
