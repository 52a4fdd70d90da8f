"""Monte Carlo pricing under geometric Brownian motion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FinanceError


@dataclass(frozen=True)
class MCResult:
    """Estimate with its standard error."""

    price: float
    stderr: float


def gbm_terminal(
    S: float,
    r: float,
    sigma: float,
    T: float,
    n_paths: int,
    rng: np.random.Generator,
    antithetic: bool = True,
) -> np.ndarray:
    """Terminal spot samples under risk-neutral GBM."""
    if n_paths < 1:
        raise FinanceError(f"n_paths must be >= 1, got {n_paths}")
    half = (n_paths + 1) // 2 if antithetic else n_paths
    z = rng.standard_normal(half)
    if antithetic:
        z = np.concatenate([z, -z])[:n_paths]
    drift = (r - 0.5 * sigma**2) * T
    return S * np.exp(drift + sigma * np.sqrt(T) * z)


def mc_european(
    S: float,
    K: float,
    r: float,
    sigma: float,
    T: float,
    n_paths: int = 100_000,
    kind: str = "call",
    rng: np.random.Generator | None = None,
    antithetic: bool = True,
) -> MCResult:
    """European option value by plain Monte Carlo."""
    if kind not in ("call", "put"):
        raise FinanceError(f"unknown option kind: {kind!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    terminal = gbm_terminal(S, r, sigma, T, n_paths, rng, antithetic)
    if kind == "call":
        payoff = np.maximum(terminal - K, 0.0)
    else:
        payoff = np.maximum(K - terminal, 0.0)
    disc = np.exp(-r * T)
    price = disc * float(payoff.mean())
    stderr = disc * float(payoff.std(ddof=1)) / np.sqrt(n_paths)
    return MCResult(price=price, stderr=stderr)
