"""Tests for the workload kernel's cost model and request validation."""

import pytest

from repro.errors import FinanceError
from repro.finance import NS_PER_OPTION, PricingRequest, compute_cost_ns


class TestWorkloadKernel:
    def test_cost_scales_with_batch(self):
        assert compute_cost_ns(10) == 10 * NS_PER_OPTION
        assert compute_cost_ns(200) == 200 * NS_PER_OPTION
        with pytest.raises(FinanceError):
            compute_cost_ns(0)

    def test_request_validation(self):
        with pytest.raises(FinanceError):
            PricingRequest(1, 0, 100.0, 100.0, 0.05, 0.2, 1.0)
