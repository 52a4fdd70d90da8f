"""The BenchEx processing kernel: its request type, calibrated cost and
the Black-Scholes pricing routines the cost stands for."""

from repro.finance.black_scholes import (
    call_price,
    d1_d2,
    delta,
    gamma,
    put_call_parity_gap,
    put_price,
    rho,
    theta,
    vega,
)
from repro.finance.workload import NS_PER_OPTION, PricingRequest, compute_cost_ns

__all__ = [
    "NS_PER_OPTION",
    "PricingRequest",
    "call_price",
    "compute_cost_ns",
    "d1_d2",
    "delta",
    "gamma",
    "put_call_parity_gap",
    "put_price",
    "rho",
    "theta",
    "vega",
]
