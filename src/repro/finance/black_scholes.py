"""Black-Scholes-Merton European option pricing and Greeks.

NumPy-vectorised port of the classic routines (the paper's BenchEx uses
Ødegaard's C++ finance library for per-request processing [1]).  All
functions accept scalars or arrays and broadcast.

Notation: S spot, K strike, r continuously-compounded rate, q dividend
yield, sigma volatility, T time to expiry in years.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy.special import ndtr

from repro.errors import FinanceError

ArrayLike = Union[float, np.ndarray]


def _nonpositive(x: ArrayLike) -> bool:
    """True if ``x`` (a scalar or array) holds a value ``<= 0``.

    Each argument takes its own path: a Python float or int (numpy
    float64 included) is a plain comparison, an ndarray one ufunc
    reduction, and anything else (lists, other numpy scalars) the
    generic ``np.asarray`` route.  NaN compares false on every path, so
    it passes.
    """
    if isinstance(x, (float, int)):
        return x <= 0
    if isinstance(x, np.ndarray):
        return bool((x <= 0).any())
    return bool(np.any(np.asarray(x) <= 0))


def _validate(S: ArrayLike, K: ArrayLike, sigma: ArrayLike, T: ArrayLike) -> None:
    if _nonpositive(S):
        raise FinanceError("spot price must be positive")
    if _nonpositive(K):
        raise FinanceError("strike must be positive")
    if _nonpositive(sigma):
        raise FinanceError("volatility must be positive")
    if _nonpositive(T):
        raise FinanceError("time to expiry must be positive")


def d1_d2(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
):
    """The standard d1/d2 terms."""
    _validate(S, K, sigma, T)
    sqrtT = np.sqrt(T)
    d1 = (np.log(np.asarray(S) / K) + (r - q + 0.5 * sigma**2) * T) / (
        sigma * sqrtT
    )
    d2 = d1 - sigma * sqrtT
    return d1, d2


def call_price(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """European call value."""
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    return S * np.exp(-q * T) * ndtr(d1) - K * np.exp(-r * T) * ndtr(d2)


def put_price(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """European put value."""
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    return K * np.exp(-r * T) * ndtr(-d2) - S * np.exp(-q * T) * ndtr(-d1)


def price_call_put_delta(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
):
    """Call value, put value, and call delta in one pass.

    Float-identical to calling :func:`call_price`, :func:`put_price`
    and :func:`delta` separately — every product keeps the same
    left-to-right association, only the shared ``d1``/``d2``/discount
    subexpressions are computed once instead of three times.
    """
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    nd1 = ndtr(d1)
    nd2 = ndtr(d2)
    disc_q = np.exp(-q * T)
    disc_r = np.exp(-r * T)
    S_disc = S * disc_q
    K_disc = K * disc_r
    call = S_disc * nd1 - K_disc * nd2
    put = K_disc * ndtr(-d2) - S_disc * ndtr(-d1)
    call_delta = disc_q * nd1
    return call, put, call_delta


def _pdf(x: ArrayLike) -> ArrayLike:
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


def delta(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
    kind: str = "call",
) -> ArrayLike:
    """dV/dS."""
    d1, _ = d1_d2(S, K, r, sigma, T, q)
    disc = np.exp(-q * T)
    if kind == "call":
        return disc * ndtr(d1)
    if kind == "put":
        return disc * (ndtr(d1) - 1.0)
    raise FinanceError(f"unknown option kind: {kind!r}")


def gamma(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """d2V/dS2 (same for calls and puts)."""
    d1, _ = d1_d2(S, K, r, sigma, T, q)
    return np.exp(-q * T) * _pdf(d1) / (S * sigma * np.sqrt(T))


def vega(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """dV/dsigma (per unit of vol, not per percentage point)."""
    d1, _ = d1_d2(S, K, r, sigma, T, q)
    return S * np.exp(-q * T) * _pdf(d1) * np.sqrt(T)


def theta(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
    kind: str = "call",
) -> ArrayLike:
    """dV/dt (calendar decay, per year)."""
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    disc_r = np.exp(-r * T)
    disc_q = np.exp(-q * T)
    common = -S * disc_q * _pdf(d1) * sigma / (2.0 * np.sqrt(T))
    if kind == "call":
        return common - r * K * disc_r * ndtr(d2) + q * S * disc_q * ndtr(d1)
    if kind == "put":
        return common + r * K * disc_r * ndtr(-d2) - q * S * disc_q * ndtr(-d1)
    raise FinanceError(f"unknown option kind: {kind!r}")


def rho(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
    kind: str = "call",
) -> ArrayLike:
    """dV/dr."""
    _, d2 = d1_d2(S, K, r, sigma, T, q)
    if kind == "call":
        return K * T * np.exp(-r * T) * ndtr(d2)
    if kind == "put":
        return -K * T * np.exp(-r * T) * ndtr(-d2)
    raise FinanceError(f"unknown option kind: {kind!r}")


def put_call_parity_gap(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """C - P - (S e^{-qT} - K e^{-rT}); zero up to rounding if the
    implementation is arbitrage-consistent."""
    c = call_price(S, K, r, sigma, T, q)
    p = put_price(S, K, r, sigma, T, q)
    return c - p - (S * np.exp(-q * T) - K * np.exp(-r * T))
