"""Registry fan-out (figures/ablations suites) and the parallel report."""

import pytest

from repro.errors import ConfigError
from repro.experiments.figures import FigureResult
from repro.experiments.suite import run_registry_set


def _stub_a(seed=7):
    """Stub experiment A."""
    return FigureResult(
        figure="StubA", title="a", headers=["seed"], rows=[[float(seed)]]
    )


def _stub_b(seed=7):
    """Stub experiment B."""
    return FigureResult(
        figure="StubB", title="b", headers=["seed"], rows=[[float(seed * 2)]]
    )


@pytest.fixture
def stub_figures(monkeypatch):
    # Fork-started workers inherit the patched registry, so the stub
    # entries resolve inside pool children too.
    import repro.experiments.figures as figures

    reduced = {"stub-a": _stub_a, "stub-b": _stub_b}
    monkeypatch.setattr(figures, "ALL_FIGURES", reduced)
    return reduced


class TestRegistrySet:
    def test_serial_runs_in_registry_order(self, stub_figures):
        results, report = run_registry_set("figures", seed=5)
        assert list(results) == ["stub-a", "stub-b"]
        assert results["stub-a"].rows == [[5.0]]
        assert results["stub-b"].rows == [[10.0]]
        assert report.executed == 2

    def test_parallel_matches_serial(self, stub_figures):
        serial, _ = run_registry_set("figures", seed=5, jobs=1)
        pooled, _ = run_registry_set("figures", seed=5, jobs=2)
        assert list(serial) == list(pooled)
        for name in serial:
            assert serial[name].rows == pooled[name].rows

    def test_subset_selection(self, stub_figures):
        results, _ = run_registry_set("figures", ["stub-b"], seed=3)
        assert list(results) == ["stub-b"]

    def test_unknown_name_rejected(self, stub_figures):
        with pytest.raises(ConfigError, match="unknown experiments"):
            run_registry_set("figures", ["nope"])

    def test_unknown_registry_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment registry"):
            run_registry_set("nope")


class TestParallelReport:
    def test_report_parallel_matches_serial(self, stub_figures, monkeypatch):
        import repro.experiments.figures as figures
        import repro.experiments.report as report_mod

        monkeypatch.setattr(report_mod, "ALL_FIGURES", figures.ALL_FIGURES)
        from repro.experiments.report import generate_report

        serial = generate_report(seed=4, include_ablations=False, jobs=1)
        pooled = generate_report(seed=4, include_ablations=False, jobs=2)
        assert "StubA" in serial and "StubB" in serial
        # The trailing wall-time line is timing-dependent; everything
        # above it must be byte-identical.
        strip = lambda text: text.rsplit("---", 1)[0]  # noqa: E731
        assert strip(serial) == strip(pooled)
