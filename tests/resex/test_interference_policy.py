"""Unit tests for the interference detector and the policy registry."""

import numpy as np
import pytest

from repro.errors import PricingError
from repro.resex import (
    FreeMarket,
    InterferenceDetector,
    IOShares,
    LatencySLA,
    NoOpPolicy,
    StaticRatio,
    policy_by_name,
    registered_policies,
)


class TestLatencySLA:
    def test_validation(self):
        with pytest.raises(PricingError):
            LatencySLA(base_mean_us=0.0)
        with pytest.raises(PricingError):
            LatencySLA(base_mean_us=100.0, base_std_us=-1.0)
        with pytest.raises(PricingError):
            LatencySLA(base_mean_us=100.0, threshold_pct=-1.0)


class TestInterferenceDetector:
    def make(self, threshold=10.0, window=50):
        return InterferenceDetector(
            LatencySLA(base_mean_us=200.0, base_std_us=2.0, threshold_pct=threshold),
            window=window,
        )

    def test_no_samples_no_interference(self):
        det = self.make()
        assert det.interference_pct() == 0.0

    def test_at_base_no_interference(self):
        det = self.make()
        det.add_samples([199.0, 200.0, 201.0, 200.0])
        assert det.interference_pct() == 0.0

    def test_mean_violation_detected(self):
        det = self.make()
        det.add_samples([300.0] * 20)
        pct = det.interference_pct()
        assert pct == pytest.approx(50.0, abs=2.0)

    def test_below_threshold_returns_zero(self):
        det = self.make(threshold=10.0)
        det.add_samples([210.0] * 20)  # only +5%
        assert det.interference_pct() == 0.0

    def test_jitter_violation_detected(self):
        """Mean at base but wild variance: still a violation (the SLA
        covers latency *variation*, the paper's second pricing goal)."""
        det = self.make()
        rng = np.random.default_rng(0)
        det.add_samples(200.0 + 60.0 * rng.standard_normal(50))
        assert det.interference_pct() > 10.0

    def test_sliding_window_forgets(self):
        det = self.make(window=10)
        det.add_samples([300.0] * 10)
        assert det.interference_pct() > 0
        det.add_samples([200.0] * 10)  # pushes the bad samples out
        assert det.interference_pct() == 0.0

    def test_reset(self):
        det = self.make()
        det.add_samples([300.0] * 10)
        det.interference_pct()
        det.reset()
        assert det.last_pct == 0.0
        det.add_samples([300.0])  # one sample: the old window is gone
        assert det.interference_pct() == 0.0

    def test_window_validation(self):
        with pytest.raises(PricingError):
            InterferenceDetector(LatencySLA(100.0), window=1)


class TestPolicyRegistry:
    def test_builtins_registered(self):
        names = set(registered_policies())
        assert {"noop", "freemarket", "ioshares", "static-ratio"} <= names

    def test_lookup_by_name(self):
        assert policy_by_name("freemarket") is FreeMarket
        assert policy_by_name("ioshares") is IOShares
        assert policy_by_name("noop") is NoOpPolicy
        assert policy_by_name("static-ratio") is StaticRatio

    def test_unknown_name(self):
        with pytest.raises(PricingError, match="unknown policy"):
            policy_by_name("communism")


class TestPolicyValidation:
    def test_freemarket_params(self):
        with pytest.raises(PricingError):
            FreeMarket(low_water_fraction=0.0)
        with pytest.raises(PricingError):
            FreeMarket(cap_decrement=0)
        with pytest.raises(PricingError):
            FreeMarket(cap_floor=0)
        with pytest.raises(PricingError):
            FreeMarket(min_epoch_fraction=1.0)

    def test_ioshares_params(self):
        with pytest.raises(PricingError):
            IOShares(rate_decay=1.0)
        with pytest.raises(PricingError):
            IOShares(max_rate=0.5)
        with pytest.raises(PricingError):
            IOShares(congestion_cap_floor=0)

    def test_static_ratio_params(self):
        with pytest.raises(PricingError):
            StaticRatio(reference_bytes=0)
        with pytest.raises(PricingError):
            StaticRatio(cap_floor=101)
