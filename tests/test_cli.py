"""CLI tests (argument parsing and end-to-end command runs)."""

import pytest

from repro.cli import _parse_size, main
from repro.units import KiB, MiB


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("64KB", 64 * KiB),
            ("64kb", 64 * KiB),
            ("2MB", 2 * MiB),
            ("1MiB", MiB),
            ("1024", 1024),
            (" 128KB ", 128 * KiB),
        ],
    )
    def test_sizes(self, text, expected):
        assert _parse_size(text) == expected

    def test_garbage_raises(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="invalid size"):
            _parse_size("lots")

    def test_garbage_flag_is_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--interferer", "lots"])
        assert exc.value.code == 2
        assert "invalid size 'lots'" in capsys.readouterr().err


class TestFiguresCommand:
    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig9", "headline"):
            assert name in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_no_selection(self, capsys):
        assert main(["figures"]) == 2

    def test_run_one_figure_and_save(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "fast")
        assert main(["figures", "fig1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig.1" in out
        assert (tmp_path / "fig1.txt").exists()


class TestScenarioCommand:
    def test_base_case(self, capsys):
        assert main(["scenario", "--sim-s", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "Total mean" in out
        assert "policy=none" in out

    def test_with_interferer_and_policy(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "--interferer",
                    "2MB",
                    "--policy",
                    "ioshares",
                    "--sim-s",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "interferer=2MB" in out

    def test_with_manual_cap(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "--interferer",
                    "512KB",
                    "--cap",
                    "12",
                    "--sim-s",
                    "0.3",
                ]
            )
            == 0
        )
        assert "cap=12" in capsys.readouterr().out


class TestParseSeeds:
    def test_count(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("4") == [0, 1, 2, 3]

    def test_range(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("3:6") == [3, 4, 5]

    def test_list(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("1,5,9") == [1, 5, 9]

    @pytest.mark.parametrize("text", ["", "x", "4:", "0"])
    def test_garbage_raises(self, text):
        import argparse

        from repro.cli import _parse_seeds

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seeds(text)


class TestSweepCommand:
    def test_json_sweep_smoke(self, capsys):
        import json

        assert main(
            ["sweep", "--seeds", "2", "--sim-s", "0.2", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seeds"] == [0, 1]
        metrics = doc["metrics"]["total_mean"]
        assert len(metrics["values"]) == 2
        assert metrics["values"][0] != metrics["values"][1]
        assert doc["report"]["jobs"] == 2

    def test_parallel_equals_serial_and_cache_warms(self, capsys, tmp_path):
        import json

        base = ["sweep", "--seeds", "2", "--sim-s", "0.2", "--json"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)

        cached = base + ["--jobs", "2", "--cache-dir", str(tmp_path / "c")]
        assert main(cached) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(cached) == 0
        warm = json.loads(capsys.readouterr().out)

        assert (
            serial["metrics"]["total_mean"]["values"]
            == cold["metrics"]["total_mean"]["values"]
            == warm["metrics"]["total_mean"]["values"]
        )
        assert cold["report"]["cached"] == 0
        assert warm["report"]["cached"] == 2

    def test_no_cache_overrides_cache_dir(self, capsys, tmp_path):
        import json

        args = [
            "sweep",
            "--seeds",
            "1",
            "--sim-s",
            "0.2",
            "--json",
            "--cache-dir",
            str(tmp_path),
            "--no-cache",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["cached"] == 0

    def test_table_output(self, capsys):
        assert main(["sweep", "--seeds", "2", "--sim-s", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "total_mean" in out
        assert "sweep:" in out  # the folded SweepReport line


class TestPoliciesCommand:
    def test_lists_builtins(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("freemarket", "ioshares", "noop", "static-ratio"):
            assert name in out


class TestReportCommand:
    def test_report_figures_only_smoke(self, tmp_path, monkeypatch, capsys):
        """End-to-end report generation over a reduced figure set."""
        import repro.experiments.report as report_mod
        from repro.experiments import ALL_FIGURES

        reduced = {"headline": ALL_FIGURES["headline"]}
        monkeypatch.setattr(report_mod, "ALL_FIGURES", reduced)
        out = tmp_path / "REPORT.md"
        assert main(
            ["report", "-o", str(out), "--no-ablations", "--seed", "3"]
        ) == 0
        text = out.read_text()
        assert "# ResEx reproduction report" in text
        assert "Headline" in text
        assert "reduction" in text.lower()


class TestIgnoredFlagsRejected:
    """Flags a command would silently ignore are config errors (exit 2)."""

    CHAOS = ["chaos", "base", "--compare", "--sim-s", "0.1"]
    SWEEP = ["sweep", "--seeds", "1", "--sim-s", "0.05"]

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (CHAOS + ["--json"], "--json"),
            (CHAOS + ["--trace", "{tmp}/t.json"], "--trace"),
            (CHAOS + ["--invariants", "record"], "--invariants"),
            (CHAOS + ["--invariants", "strict"], "--invariants"),
            (SWEEP + ["--timeout-s", "60"], "--timeout-s"),
            (SWEEP + ["--stall-s", "5"], "--stall-s"),
            (SWEEP + ["--run-id", "x"], "--run-id"),
            (SWEEP + ["--retry-quarantined"], "--retry-quarantined"),
            (SWEEP + ["--supervise", "--retry-quarantined"], "--retry-quarantined"),
        ],
    )
    def test_exits_with_config_code(self, capsys, tmp_path, argv, flag):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv[0] == "sweep":
            argv += ["--run-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and flag in err
