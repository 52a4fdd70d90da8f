"""Black-Scholes validation rejects exactly what it always rejected.

``_validate`` checks each argument on its own path, a cheaper spelling
of the original all-arguments ``np.any(np.asarray(...))`` code.  These
properties pin it to the original, copied here as a reference:
``FinanceError`` on exactly the same inputs (NaN keeps passing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FinanceError
from repro.finance import black_scholes


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


def _outcome(validate, args):
    try:
        validate(*args)
    except FinanceError as exc:
        return ("rejected", str(exc))
    return ("ok",)


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
