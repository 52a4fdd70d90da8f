"""The stdlib normal CDF: accuracy against a reference table, and the
properties pricing relies on.

``ndtr_reference.json`` holds 203 points of ``scipy.special.ndtr``
over [-38, 38] (its ``note`` says how they were chosen and captured);
the table is read as float hex, so no decimal rounding enters.
"""

import json
import math
import pathlib
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.finance.black_scholes import (
    call_price,
    delta,
    ndtr,
    price_call_put_delta,
    put_price,
)

_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "ndtr_reference.json").read_text()
)["points"]
XS = np.array([float.fromhex(x) for x, _ in _TABLE])
REF = np.array([float.fromhex(p) for _, p in _TABLE])

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def test_matches_the_reference_table():
    got = ndtr(XS)
    err = np.abs(got - REF)
    assert err.max() <= 2.3e-16
    big = REF >= 1e-300
    assert (err[big] / REF[big]).max() <= 1e-13


def test_edges():
    assert ndtr(0.0) == ndtr(-0.0) == 0.5
    assert ndtr(math.inf) == 1.0
    assert ndtr(-math.inf) == 0.0
    assert math.isnan(ndtr(math.nan))
    assert np.isnan(ndtr(np.array([math.nan]))).all()


@given(a=FINITE, b=FINITE)
@settings(max_examples=500, deadline=None)
def test_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert ndtr(lo) <= ndtr(hi)


@given(x=FINITE)
@settings(max_examples=500, deadline=None)
def test_symmetric(x):
    assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 2.0**-53


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@given(
    a=arrays(
        np.float64,
        st.integers(min_value=0, max_value=40),
        elements=st.floats(allow_nan=True, allow_infinity=True),
    )
)
@settings(max_examples=300, deadline=None)
def test_scalar_and_array_paths_agree_bit_for_bit(a):
    assert _bits(ndtr(a).tolist()) == _bits([ndtr(x) for x in a.tolist()])
    grid = a.reshape(-1, 1)
    assert _bits(ndtr(grid).ravel().tolist()) == _bits(ndtr(a).tolist())


POSITIVE = st.floats(min_value=1e-3, max_value=1e4)
PRICING = st.tuples(
    arrays(np.float64, st.integers(min_value=1, max_value=50), elements=POSITIVE),
    POSITIVE,
    st.floats(min_value=-0.05, max_value=0.2),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=0.1),
)


@given(args=PRICING)
@settings(max_examples=300, deadline=None)
def test_price_call_put_delta_equals_the_separate_functions(args):
    calls, puts, deltas = price_call_put_delta(*args)
    assert _bits(calls.tolist()) == _bits(call_price(*args).tolist())
    assert _bits(puts.tolist()) == _bits(put_price(*args).tolist())
    assert _bits(deltas.tolist()) == _bits(delta(*args).tolist())
    spot, *rest = args
    s = spot.tolist()[0]
    assert _bits([float(v) for v in price_call_put_delta(s, *rest)]) == _bits(
        [call_price(s, *rest), put_price(s, *rest), delta(s, *rest)]
    )
