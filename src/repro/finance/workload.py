"""The per-request processing kernel BenchEx's server runs.

Each trading request carries a batch of option-pricing tasks; the
server prices them (really — the numbers are computed) and the
simulation charges the corresponding CPU time.  The ns-per-option
constant is a calibration knob: the paper's base configuration shows a
~209 us total request latency whose compute component (CTime) is the
stable part (Fig. 2), so CTime is sized by ``options_per_request``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import FinanceError
from repro.finance.black_scholes import price_call_put_delta

#: Simulated CPU cost of pricing one option (Black-Scholes + one Greek),
#: about what a tuned C implementation needs on the testbed's 1.86 GHz
#: Xeons (a few hundred ns/option).
NS_PER_OPTION = 650


@dataclass(frozen=True)
class PricingRequest:
    """One exchange transaction: a batch of quotes to (re)price."""

    request_id: int
    n_options: int
    spot: float
    strike: float
    rate: float
    sigma: float
    expiry_years: float

    def __post_init__(self) -> None:
        if self.n_options < 1:
            raise FinanceError("a request must price at least one option")


@dataclass(frozen=True)
class PricingResult:
    """Aggregated response the server returns to the client."""

    request_id: int
    mean_call: float
    mean_put: float
    mean_delta: float


def process_request(req: PricingRequest, rng: np.random.Generator) -> Tuple[PricingResult, int]:
    """Price the request's batch; returns (result, cpu_cost_ns).

    The batch perturbs spot/strike around the request's levels the way
    an exchange reprices a book of neighbouring strikes.
    """
    n = req.n_options
    spots = req.spot * (1.0 + 0.01 * rng.standard_normal(n))
    strikes = req.strike * (1.0 + 0.05 * (rng.random(n) - 0.5))
    # np.maximum and sum()/n are the ufunc reductions np.clip and
    # np.mean run, minus their Python-level wrappers (bit-identical).
    spots = np.maximum(spots, 1e-6)
    strikes = np.maximum(strikes, 1e-6)
    calls, puts, deltas = price_call_put_delta(
        spots, strikes, req.rate, req.sigma, req.expiry_years
    )
    result = PricingResult(
        request_id=req.request_id,
        mean_call=float(calls.sum() / n),
        mean_put=float(puts.sum() / n),
        mean_delta=float(deltas.sum() / n),
    )
    return result, n * NS_PER_OPTION


def compute_cost_ns(n_options: int) -> int:
    """Simulated CPU cost for a batch without executing it."""
    if n_options < 1:
        raise FinanceError("n_options must be >= 1")
    return n_options * NS_PER_OPTION
