"""Tests for unit conversions and formatting helpers."""

import pytest

from repro import units


class TestTimeConversions:
    def test_constants(self):
        assert units.US == 1_000
        assert units.MS == 1_000_000
        assert units.SEC == 1_000_000_000

    def test_ns_to_x(self):
        assert units.ns_to_us(1_500) == 1.5

    def test_x_to_ns(self):
        assert units.us(2.5) == 2_500
        assert units.ms(1.5) == 1_500_000
        assert units.seconds(0.25) == 250_000_000

    def test_rounding(self):
        assert units.us(0.0004) == 0  # rounds
        assert units.us(0.0006) == 1


class TestDataUnits:
    def test_constants(self):
        assert units.KiB == 1024
        assert units.MiB == 1024**2
        assert units.GiB == 1024**3


class TestFormatting:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (512, "512B"),
            (64 * 1024, "64KB"),
            (2 * 1024 * 1024, "2MB"),
            (3 * 1024**3, "3GB"),
            (1536, "1536B"),  # non-multiple stays in bytes
        ],
    )
    def test_bytes(self, n, expected):
        assert units.format_bytes(n) == expected


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            cls = getattr(errors, name)
            if (
                isinstance(cls, type)
                and issubclass(cls, Exception)
                and cls not in (errors.ReproError, errors.StopSimulation)
                and cls.__module__ == "repro.errors"
            ):
                assert issubclass(cls, errors.ReproError), name

    def test_stop_simulation_carries_value(self):
        from repro.errors import StopSimulation

        assert StopSimulation(42).value == 42
