"""Service replay through the sweep engine: fan-out and cache."""

from repro.parallel import SweepJob, run_sweep


def _jobs(requests=80):
    return [
        SweepJob("service", "service_smoke", 7, {"requests": requests}),
        SweepJob("service", "service_smoke", 8, {"requests": requests}),
    ]


class TestServiceCells:
    def test_serial_metrics(self):
        result = run_sweep(_jobs(), workers=1)
        assert result.report.errors == 0
        m7, m8 = (cell.metrics for cell in result.cells)
        assert m7["ok"] == 80.0
        assert m7["digest48"] != m8["digest48"]  # seed-sensitive

    def test_parallel_matches_serial(self):
        serial = run_sweep(_jobs(), workers=1)
        pooled = run_sweep(_jobs(), workers=2)
        assert [c.metrics for c in serial.cells] == [
            c.metrics for c in pooled.cells
        ]

    def test_cacheable(self, tmp_path):
        cold = run_sweep(_jobs(), workers=1, cache=tmp_path)
        warm = run_sweep(_jobs(), workers=1, cache=tmp_path)
        assert cold.report.cached == 0
        assert warm.report.cached == 2
        assert [c.metrics for c in cold.cells] == [
            c.metrics for c in warm.cells
        ]
