"""Tests for implied vol, binomial trees, Monte Carlo, and the workload kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FinanceError
from repro.finance import (
    NS_PER_OPTION,
    PricingRequest,
    call_price,
    compute_cost_ns,
    crr_price,
    implied_vol,
    mc_european,
    process_request,
    put_price,
)


class TestImpliedVol:
    def test_roundtrip_call(self):
        sigma = 0.27
        price = float(call_price(100.0, 105.0, 0.03, sigma, 0.75))
        assert implied_vol(price, 100.0, 105.0, 0.03, 0.75) == pytest.approx(
            sigma, abs=1e-6
        )

    def test_roundtrip_put(self):
        sigma = 0.45
        price = float(put_price(50.0, 45.0, 0.01, sigma, 2.0))
        assert implied_vol(
            price, 50.0, 45.0, 0.01, 2.0, kind="put"
        ) == pytest.approx(sigma, abs=1e-6)

    def test_deep_itm_roundtrip(self):
        sigma = 0.2
        price = float(call_price(200.0, 50.0, 0.05, sigma, 0.5))
        assert implied_vol(price, 200.0, 50.0, 0.05, 0.5) == pytest.approx(
            sigma, abs=1e-4
        )

    def test_arbitrage_violating_price_rejected(self):
        with pytest.raises(FinanceError, match="no-arbitrage"):
            # Call priced above the spot: impossible.
            implied_vol(200.0, 100.0, 100.0, 0.05, 1.0)
        with pytest.raises(FinanceError, match="no-arbitrage"):
            # Deep ITM call priced below intrinsic value.
            implied_vol(0.0, 200.0, 100.0, 0.05, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(FinanceError):
            implied_vol(1.0, 100.0, 100.0, 0.05, 1.0, kind="x")

    @given(sigma=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, sigma):
        price = float(call_price(100.0, 100.0, 0.02, sigma, 1.0))
        assert implied_vol(price, 100.0, 100.0, 0.02, 1.0) == pytest.approx(
            sigma, abs=1e-5
        )


class TestBinomial:
    def test_converges_to_black_scholes(self):
        bs = float(call_price(100.0, 100.0, 0.05, 0.2, 1.0))
        tree = crr_price(100.0, 100.0, 0.05, 0.2, 1.0, steps=2000)
        assert tree == pytest.approx(bs, abs=5e-3)

    def test_put_converges(self):
        bs = float(put_price(100.0, 110.0, 0.05, 0.3, 0.5))
        tree = crr_price(100.0, 110.0, 0.05, 0.3, 0.5, steps=2000, kind="put")
        assert tree == pytest.approx(bs, abs=5e-3)

    def test_american_put_worth_more_than_european(self):
        eur = crr_price(100.0, 110.0, 0.08, 0.2, 1.0, kind="put", steps=500)
        amer = crr_price(
            100.0, 110.0, 0.08, 0.2, 1.0, kind="put", steps=500, american=True
        )
        assert amer > eur

    def test_american_call_no_dividends_equals_european(self):
        eur = crr_price(100.0, 100.0, 0.05, 0.2, 1.0, steps=500)
        amer = crr_price(100.0, 100.0, 0.05, 0.2, 1.0, steps=500, american=True)
        assert amer == pytest.approx(eur, abs=1e-9)

    def test_validation(self):
        with pytest.raises(FinanceError):
            crr_price(100.0, 100.0, 0.05, 0.2, 1.0, steps=0)
        with pytest.raises(FinanceError):
            crr_price(-1.0, 100.0, 0.05, 0.2, 1.0)
        with pytest.raises(FinanceError):
            crr_price(100.0, 100.0, 0.05, 0.2, 1.0, kind="x")


class TestMonteCarlo:
    def test_mc_matches_bs_within_3_sigma(self):
        rng = np.random.default_rng(42)
        bs = float(call_price(100.0, 100.0, 0.05, 0.2, 1.0))
        result = mc_european(100.0, 100.0, 0.05, 0.2, 1.0, 200_000, rng=rng)
        assert abs(result.price - bs) < 3 * result.stderr

    def test_put_side(self):
        rng = np.random.default_rng(7)
        bs = float(put_price(100.0, 110.0, 0.03, 0.25, 0.5))
        result = mc_european(
            100.0, 110.0, 0.03, 0.25, 0.5, 200_000, kind="put", rng=rng
        )
        assert abs(result.price - bs) < 3 * result.stderr

    def test_antithetic_reduces_stderr(self):
        plain = mc_european(
            100.0, 100.0, 0.05, 0.2, 1.0, 100_000,
            rng=np.random.default_rng(1), antithetic=False,
        )
        anti = mc_european(
            100.0, 100.0, 0.05, 0.2, 1.0, 100_000,
            rng=np.random.default_rng(1), antithetic=True,
        )
        assert anti.stderr < plain.stderr

    def test_validation(self):
        with pytest.raises(FinanceError):
            mc_european(100.0, 100.0, 0.05, 0.2, 1.0, n_paths=0)
        with pytest.raises(FinanceError):
            mc_european(100.0, 100.0, 0.05, 0.2, 1.0, kind="x")


class TestWorkloadKernel:
    def _req(self, n=100):
        return PricingRequest(
            request_id=1,
            n_options=n,
            spot=100.0,
            strike=100.0,
            rate=0.05,
            sigma=0.2,
            expiry_years=1.0,
        )

    def test_cost_scales_with_batch(self):
        assert compute_cost_ns(10) == 10 * NS_PER_OPTION
        assert compute_cost_ns(200) == 200 * NS_PER_OPTION
        with pytest.raises(FinanceError):
            compute_cost_ns(0)

    def test_process_returns_sane_prices(self):
        rng = np.random.default_rng(0)
        result, cost = process_request(self._req(500), rng)
        assert cost == 500 * NS_PER_OPTION
        bs_atm = float(call_price(100.0, 100.0, 0.05, 0.2, 1.0))
        # Batch perturbs strikes/spots by a few percent: mean near ATM value.
        assert result.mean_call == pytest.approx(bs_atm, rel=0.25)
        assert 0.0 < result.mean_delta < 1.0

    def test_deterministic_given_rng(self):
        a, _ = process_request(self._req(), np.random.default_rng(5))
        b, _ = process_request(self._req(), np.random.default_rng(5))
        assert a == b

    def test_request_validation(self):
        with pytest.raises(FinanceError):
            PricingRequest(1, 0, 100.0, 100.0, 0.05, 0.2, 1.0)
