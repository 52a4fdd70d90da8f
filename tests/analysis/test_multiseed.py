"""Tests for the multi-seed replication helpers."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError, SweepError
from repro.experiments.multiseed import (
    Replication,
    sweep_chaos,
    sweep_comparison,
    sweep_scenario,
)


class TestReplicationStats:
    def test_aggregates(self):
        r = Replication("x", (1, 2, 3), (10.0, 12.0, 14.0))
        assert r.mean == 12.0
        assert r.minimum == 10.0
        assert r.maximum == 14.0
        assert r.std == pytest.approx(2.0)
        assert r.ci95_halfwidth() == pytest.approx(1.96 * 2.0 / 3**0.5)

    def test_single_sample(self):
        r = Replication("x", (1,), (10.0,))
        assert r.std == 0.0

        assert np.isnan(r.ci95_halfwidth())

    def test_median_and_percentiles(self):
        r = Replication("x", (1, 2, 3, 4), (10.0, 30.0, 20.0, 40.0))
        assert r.median == 25.0
        assert r.percentile(0) == 10.0
        assert r.percentile(100) == 40.0
        assert r.percentile(50) == r.median

    def test_percentile_bounds_checked(self):
        r = Replication("x", (1,), (10.0,))
        with pytest.raises(ConfigError):
            r.percentile(101)
        with pytest.raises(ConfigError):
            r.percentile(-1)


class TestReplicationInfSafety:
    """worst_ttr_ms is inf when a chaos run never recovered; the moment
    statistics must degrade to the finite subsample, not to inf/NaN."""

    def test_inf_sample_counted_not_propagated(self):
        r = Replication("ttr", (1, 2, 3), (10.0, 12.0, float("inf")))
        assert r.n_nonfinite == 1
        assert r.finite_values == (10.0, 12.0)
        assert math.isinf(r.mean)  # the honest full-series mean
        assert r.finite_mean == pytest.approx(11.0)
        assert math.isfinite(r.std)
        assert r.std == pytest.approx(np.std([10.0, 12.0], ddof=1))
        assert math.isfinite(r.ci95_halfwidth())
        assert r.ci95_halfwidth() == pytest.approx(
            1.96 * r.std / math.sqrt(2)
        )

    def test_median_robust_to_minority_inf(self):
        r = Replication("ttr", (1, 2, 3), (10.0, 12.0, float("inf")))
        assert r.median == 12.0

    def test_all_inf_series(self):
        r = Replication("ttr", (1, 2), (float("inf"), float("inf")))
        assert r.n_nonfinite == 2
        assert r.std == 0.0
        assert math.isnan(r.ci95_halfwidth())
        assert math.isnan(r.finite_mean)

    def test_repr_flags_nonfinite(self):
        r = Replication("ttr", (1, 2, 3), (10.0, 12.0, float("inf")))
        assert "1 non-finite" in repr(r)

    def test_finite_series_unchanged(self):
        r = Replication("x", (1, 2, 3), (10.0, 12.0, 14.0))
        assert r.n_nonfinite == 0
        assert r.finite_values == r.values


class TestReplicateScenario:
    def test_runs_each_seed(self):
        rep = sweep_scenario("base", seeds=[1, 2], sim_s=0.3)[0]
        assert len(rep.values) == 2
        assert rep.seeds == (1, 2)
        # Base case is ~209us at every seed.
        assert all(200 < v < 220 for v in rep.values)

    def test_different_seeds_different_samples(self):
        rep = sweep_scenario("base", seeds=[1, 2], sim_s=0.3)[0]
        # Compute jitter differs by seed (not byte-identical runs).
        assert rep.values[0] != rep.values[1]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            sweep_scenario("x", seeds=[])

    def test_comparison(self):
        reps = sweep_comparison(
            [1], {"a": dict(sim_s=0.3), "b": dict(sim_s=0.3)}
        )[0]
        assert set(reps) == {"a", "b"}


class TestSerialParallelEquivalence:
    """The engine's contract: pool width changes wall time, never floats."""

    def test_replicate_scenario_bit_identical(self):
        serial = sweep_scenario("eq", seeds=[1, 2, 3], sim_s=0.2)[0]
        pooled = sweep_scenario("eq", seeds=[1, 2, 3], jobs=2, sim_s=0.2)[0]
        assert serial == pooled  # tuple equality: bit-for-bit floats

    def test_replicate_comparison_bit_identical(self):
        from repro.benchex import BenchExConfig
        from repro.units import KiB

        configs = {
            "base": dict(sim_s=0.2),
            "capped": dict(
                sim_s=0.2,
                interferer=BenchExConfig(
                    name="interferer", buffer_bytes=512 * KiB
                ),
                manual_cap=12,
            ),
        }
        serial = sweep_comparison([1, 2], configs)[0]
        pooled = sweep_comparison([1, 2], configs, jobs=2)[0]
        assert serial == pooled

    def test_replicate_chaos_bit_identical(self):
        serial = sweep_chaos(
            "fig9", seeds=[1, 2], campaign="link-flap", sim_s=0.3
        )[0]
        pooled = sweep_chaos(
            "fig9", seeds=[1, 2], campaign="link-flap", jobs=2, sim_s=0.3
        )[0]
        assert serial == pooled
        assert set(serial) == {"excursion_us_s", "worst_ttr_ms", "recovered"}


class TestSweepCache:
    def test_warm_rerun_served_from_cache_identically(self, tmp_path):
        cold_rep, cold_report = sweep_scenario(
            "cached", [1, 2], cache=tmp_path, sim_s=0.2
        )
        warm_rep, warm_report = sweep_scenario(
            "cached", [1, 2], cache=tmp_path, sim_s=0.2
        )
        assert cold_report.cached == 0 and cold_report.executed == 2
        assert warm_report.cached == 2 and warm_report.executed == 0
        assert warm_rep == cold_rep

    def test_kwarg_change_misses(self, tmp_path):
        sweep_scenario("cached", [1], cache=tmp_path, sim_s=0.2)
        _, report = sweep_scenario("cached", [1], cache=tmp_path, sim_s=0.3)
        assert report.cached == 0

    def test_failed_cell_raises_sweep_error_with_labels(self):
        with pytest.raises(SweepError) as err:
            sweep_scenario("bad", seeds=[1], policy="no-such-policy")
        assert err.value.cell_errors
        label, detail = err.value.cell_errors[0]
        assert label == "scenario:bad@s1"
        assert detail
