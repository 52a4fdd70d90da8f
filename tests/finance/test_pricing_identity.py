"""BenchEx pricing stays bit-identical to its original formulation.

``process_request`` reduces with ``np.maximum`` and ``sum() / n`` and
``_validate`` checks each argument on its own path; both are cheaper
spellings of the original ``np.clip``/``np.mean`` and all-arguments
``np.any(np.asarray(...))`` code.  These properties pin them to the
original, copied here as references: same floats to the bit, and
``FinanceError`` on exactly the same inputs (NaN keeps passing).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FinanceError
from repro.finance import black_scholes
from repro.finance.black_scholes import price_call_put_delta
from repro.finance.workload import (
    NS_PER_OPTION,
    PricingRequest,
    PricingResult,
    process_request,
)


def _reference_process_request(req, rng):
    """The original np.clip + np.mean formulation."""
    n = req.n_options
    spots = req.spot * (1.0 + 0.01 * rng.standard_normal(n))
    strikes = req.strike * (1.0 + 0.05 * (rng.random(n) - 0.5))
    spots = np.clip(spots, 1e-6, None)
    strikes = np.clip(strikes, 1e-6, None)
    calls, puts, deltas = price_call_put_delta(
        spots, strikes, req.rate, req.sigma, req.expiry_years
    )
    result = PricingResult(
        request_id=req.request_id,
        mean_call=float(np.mean(calls)),
        mean_put=float(np.mean(puts)),
        mean_delta=float(np.mean(deltas)),
    )
    return result, n * NS_PER_OPTION


def _reference_validate(S, K, sigma, T):
    """The original validator: one scalar fast path, else np.any on all."""
    try:
        if S > 0 and K > 0 and sigma > 0 and T > 0:
            return
    except (TypeError, ValueError):
        pass
    if np.any(np.asarray(S) <= 0):
        raise FinanceError("spot price must be positive")
    if np.any(np.asarray(K) <= 0):
        raise FinanceError("strike must be positive")
    if np.any(np.asarray(sigma) <= 0):
        raise FinanceError("volatility must be positive")
    if np.any(np.asarray(T) <= 0):
        raise FinanceError("time to expiry must be positive")


def _bits(result):
    return struct.pack(
        "<q3d", result.request_id, result.mean_call, result.mean_put,
        result.mean_delta,
    )


def _outcome(validate, args):
    try:
        validate(*args)
    except FinanceError as exc:
        return ("rejected", str(exc))
    return ("ok",)


POSITIVE = st.floats(min_value=1e-3, max_value=1e4)

REQUEST = st.builds(
    PricingRequest,
    request_id=st.integers(min_value=0, max_value=2**31),
    n_options=st.integers(min_value=1, max_value=400),
    spot=POSITIVE,
    strike=POSITIVE,
    rate=st.floats(min_value=-0.05, max_value=0.2),
    sigma=st.floats(min_value=1e-3, max_value=2.0),
    expiry_years=st.floats(min_value=1e-3, max_value=10.0),
)


@given(req=REQUEST, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_process_request_matches_clip_and_mean_bit_for_bit(req, seed):
    got, cost = process_request(req, np.random.default_rng(seed))
    want, want_cost = _reference_process_request(req, np.random.default_rng(seed))
    assert _bits(got) == _bits(want)
    assert cost == want_cost


#: Validator inputs: scalars (ints, floats including 0, negatives, NaN
#: and infinities), ndarrays of any length and plain lists.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
ARGUMENT = st.one_of(
    st.integers(min_value=-3, max_value=3),
    ANY_FLOAT,
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
    arrays(np.float64, st.integers(min_value=0, max_value=4), elements=ANY_FLOAT),
    st.lists(ANY_FLOAT, max_size=3),
)


@given(args=st.tuples(ARGUMENT, ARGUMENT, ARGUMENT, ARGUMENT))
@settings(max_examples=500, deadline=None)
def test_validate_rejects_exactly_what_it_always_rejected(args):
    assert _outcome(black_scholes._validate, args) == _outcome(
        _reference_validate, args
    )


@pytest.mark.parametrize(
    "args",
    [
        (float("nan"), 100.0, 0.2, 1.0),
        (100.0, 100.0, float("nan"), 1.0),
        (np.array([100.0, float("nan")]), 100.0, 0.2, 1.0),
        (np.array([100.0, 90.0]), np.array([float("nan"), 95.0]), 0.2, 1.0),
    ],
)
def test_nan_keeps_passing(args):
    black_scholes._validate(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((np.array([100.0, 0.0]), 100.0, 0.2, 1.0), "spot"),
        ((100.0, np.array([1.0, -2.0]), 0.2, 1.0), "strike"),
        ((np.array([100.0, 90.0]), 100.0, 0, 1.0), "volatility"),
        ((np.array([100.0, 90.0]), 100.0, 0.2, -0.0), "expiry"),
    ],
)
def test_first_bad_argument_names_the_error(args, message):
    with pytest.raises(FinanceError, match=message):
        black_scholes._validate(*args)
