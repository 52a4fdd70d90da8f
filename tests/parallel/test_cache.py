"""Content-addressed cache: canonical encoding, keys, round-trips."""

import dataclasses
import json

import numpy as np
import pytest

from repro.parallel import (
    CELL_SCHEMA,
    ResultCache,
    Uncacheable,
    canonical,
    cell_key,
)


@dataclasses.dataclass(frozen=True)
class FakeConfig:
    name: str
    buffer_bytes: int
    depth: int = 2


class Plain:
    def __init__(self):
        self.alpha = 1
        self.beta = "b"


class TestCanonical:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonical(value) == value

    def test_sequences_become_lists(self):
        assert canonical((1, 2, [3, (4,)])) == [1, 2, [3, [4]]]

    def test_dict_keys_stringified(self):
        assert canonical({1: "a", "b": 2}) == {"1": "a", "b": 2}

    def test_dataclass_encoding_carries_type_and_fields(self):
        enc = canonical(FakeConfig("i", 2048))
        assert enc["__dataclass__"].endswith("FakeConfig")
        assert enc["fields"] == {"name": "i", "buffer_bytes": 2048, "depth": 2}

    def test_plain_object_encodes_qualname_and_state(self):
        enc = canonical(Plain())
        assert enc["__object__"].endswith("Plain")
        assert enc["state"] == {"alpha": 1, "beta": "b"}

    def test_numpy_scalar_lowers_to_python(self):
        assert canonical(np.float64(2.5)) == 2.5
        assert canonical(np.int64(7)) == 7

    def test_callable_is_uncacheable(self):
        with pytest.raises(Uncacheable):
            canonical(lambda: None)

    def test_result_is_json_encodable(self):
        blob = json.dumps(canonical({"cfg": FakeConfig("x", 1)}))
        assert "FakeConfig" in blob


class TestCellKey:
    def test_stable(self):
        a = cell_key("scenario", "base", 7, {"sim_s": 0.3})
        b = cell_key("scenario", "base", 7, {"sim_s": 0.3})
        assert a == b and len(a) == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="chaos"),
            dict(name="other"),
            dict(seed=8),
            dict(spec={"sim_s": 0.4}),
            dict(version="0.0.0-test"),
        ],
    )
    def test_any_input_changes_the_key(self, kwargs):
        base = dict(
            kind="scenario", name="base", seed=7, spec={"sim_s": 0.3}
        )
        assert cell_key(**base) != cell_key(**{**base, **kwargs})

    def test_key_independent_of_spec_insertion_order(self):
        assert cell_key("s", "n", 1, {"a": 1, "b": 2}) == cell_key(
            "s", "n", 1, {"b": 2, "a": 1}
        )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("scenario", "base", 7, {"sim_s": 0.3})
        assert cache.load(key) is None
        cache.store(key, {"total_mean": 209.125})
        assert cache.load(key) == {"total_mean": 209.125}
        assert len(cache) == 1

    def test_floats_round_trip_bit_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("scenario", "x", 1, {})
        value = 209.12487610619473
        cache.store(key, {"v": value, "inf": float("inf")})
        loaded = cache.load(key)
        assert loaded["v"] == value
        assert loaded["inf"] == float("inf")

    def test_uncacheable_spec_yields_no_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key("scenario", "x", 1, {"fn": lambda: 0}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("scenario", "x", 1, {})
        cache.store(key, {"v": 1.0})
        path = cache._path(key)
        path.write_text("{ not json")
        assert cache.load(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("scenario", "x", 1, {})
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_text(
            json.dumps({"schema": "other/9", "metrics": {"v": 1.0}})
        )
        assert cache.load(key) is None
        assert CELL_SCHEMA == "repro-cell/2"

    def test_unsealed_entry_of_the_old_schema_is_a_miss(self, tmp_path):
        """``repro-cell/1`` entries carried no digest; they are dropped
        as misses instead of being read by a second reader."""
        cache = ResultCache(tmp_path, on_corruption=lambda k, r: None)
        key = cache.key("scenario", "x", 1, {})
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_text(json.dumps(
            {"schema": "repro-cell/1", "version": "1.0", "metrics": {"v": 1.0}}
        ))
        assert cache.load(key) is None
        assert cache.corrupt_dropped == 1

    def test_version_partitions_the_cache(self, tmp_path):
        old = ResultCache(tmp_path, version="1.0")
        new = ResultCache(tmp_path, version="2.0")
        spec = {"sim_s": 0.3}
        old.store(old.key("scenario", "x", 1, spec), {"v": 1.0})
        assert new.load(new.key("scenario", "x", 1, spec)) is None


class TestCorruptionHandling:
    """A damaged entry is a miss, gets deleted, and is reported —
    never an exception, never stale data."""

    def _truncated_entry(self, tmp_path, **kwargs):
        cache = ResultCache(tmp_path, **kwargs)
        key = cache.key("scenario", "x", 1, {"sim_s": 0.3})
        cache.store(key, {"total_mean": 209.125, "requests": 48.0})
        path = cache._path(key)
        # Simulate a crash mid-write: valid JSON prefix, cut short.
        path.write_text(path.read_text()[:37])
        return cache, key, path

    def test_truncated_json_is_dropped_and_counted(self, tmp_path):
        cache, key, path = self._truncated_entry(tmp_path)
        assert cache.load(key) is None
        assert not path.exists()  # poisoned file removed from disk
        assert cache.corrupt_dropped == 1
        # the next load is an ordinary miss, not another corruption
        assert cache.load(key) is None
        assert cache.corrupt_dropped == 1

    def test_on_corruption_callback_receives_key_and_reason(self, tmp_path):
        seen = []
        cache, key, _ = self._truncated_entry(
            tmp_path, on_corruption=lambda k, reason: seen.append((k, reason))
        )
        cache.load(key)
        assert len(seen) == 1
        got_key, reason = seen[0]
        assert got_key == key
        assert reason.startswith("invalid JSON")

    def test_store_after_drop_recovers(self, tmp_path):
        cache, key, _ = self._truncated_entry(tmp_path)
        cache.load(key)
        cache.store(key, {"total_mean": 1.0})
        assert cache.load(key) == {"total_mean": 1.0}

    def test_unreadable_entry_reports_reason(self, tmp_path):
        seen = []
        cache = ResultCache(tmp_path, on_corruption=lambda k, r: seen.append(r))
        key = cache.key("scenario", "x", 1, {})
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.mkdir()  # a directory where a file should be
        assert cache.load(key) is None
        assert len(seen) == 1
