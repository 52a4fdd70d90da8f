"""The per-request processing kernel BenchEx's server runs.

Each trading request carries a batch of option-pricing tasks, and the
simulation charges the server the CPU time pricing them takes.  Only
that cost enters the model: the paper's per-request processing sets
CTime and nothing else (§IV, Fig. 2), so the prices themselves are not
computed.  The ns-per-option constant is a calibration knob: the
paper's base configuration shows a ~209 us total request latency whose
compute component (CTime) is the stable part (Fig. 2), so CTime is
sized by the request's ``n_options``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FinanceError

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


def compute_cost_ns(n_options: int) -> int:
    """Simulated CPU cost of pricing a batch of ``n_options``."""
    if n_options < 1:
        raise FinanceError("n_options must be >= 1")
    return n_options * NS_PER_OPTION
