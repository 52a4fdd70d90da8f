"""Durable formats: pinned bytes, and one corruption suite over all four.

``repro.durable.canonical_digest`` is persisted, so its bytes are
pinned, and so are the bytes of a world file and a ``ckpt/1`` file.

The property suite damages a small fixture of every durable format —
checkpoint, world snapshot, cache entry, run manifest — in every way a
crash or a bad disk can: a truncation at every cut and a flip of every
byte with XOR 0x01 and 0x20, each tried exhaustively.  Every outcome
must be a typed error, a cache miss that counts the dropped entry, a
read-back equal to what was written, or — for the manifest, an
append-only log — the state of a whole-record prefix.
"""

import dataclasses
import hashlib

import pytest

from repro.durable import append_record, canonical_digest, read_records
from repro.errors import CacheCorruption, CheckpointError
from repro.parallel import SweepJob
from repro.parallel.cache import ResultCache, cell_key
from repro.service.world import load_world_snapshot, save_world_snapshot
from repro.sim.checkpoint import (
    CKPT_SCHEMA,
    CheckpointConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.supervise.manifest import RunManifest, result_digest

_DOC = {"b": [1, 2.5, None], "a": {"z": True, "y": "résex"}, "n": -0.125}
_DOC_DIGEST = "a8991d551bdcf7cb3d1e6a606636ff93fcb317d5620448a319456e78f3e7ef42"

_SNAP = {
    "schema": "resex-world/1", "seed": 3, "now_ns": 1234567,
    "pool_resos": 2.5, "bindings": {"alpha": 0, "beta": 1},
    "note": "résex", "lost": None,
}
_CKPT_PAYLOAD = {
    "schema": CKPT_SCHEMA, "k": 3, "stride": 2, "world_key": "world/pin",
    "journal": [[b"frame-0", b"frame-1"], [b"frame-2"]],
    "until_ns": 1_000_000,
}
_METRICS = {"total_mean": 123.5, "requests": 48.0, "p99": float("inf")}


def test_digests_on_disk_are_unchanged(tmp_path):
    """Cache keys, manifest result digests and world-file digests all
    go through ``canonical_digest``; a changed encoding would orphan
    every cache entry and fail every resume and snapshot load."""
    assert canonical_digest(_DOC) == _DOC_DIGEST
    assert result_digest(_DOC) == _DOC_DIGEST
    assert save_world_snapshot(str(tmp_path / "w.json"), _DOC) == _DOC_DIGEST
    spec = {"sim_s": 0.2, "policy": "ioshares"}
    assert cell_key("scenario", "fig1", 7, spec, version="1.0") == (
        "d757ec9f22edae4e5a875f0721022162572a5ebe8d803f7a3af9b9847a985239"
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_world_file_bytes_are_unchanged(tmp_path):
    path = tmp_path / "w.json"
    digest = save_world_snapshot(str(path), _SNAP)
    assert digest == (
        "c987ac07c13a04b8842f824ee9f17e2312dcef2767c8d944ffb870b27d8146d8"
    )
    assert _sha256(path) == (
        "b8df2d241d71accef7646a83e2b8a4ec988e898f7cbbb8ac7a91c8bdf7556302"
    )


def test_checkpoint_bytes_are_unchanged(tmp_path):
    path = save_checkpoint(CheckpointConfig(dir=tmp_path), _CKPT_PAYLOAD)
    assert path.name == "ckpt-00000003-17f8a75f2c1a.rxc"
    assert _sha256(path) == (
        "01e9473309bf48f20bc0583327c49c99910615ceec1a5c279ed8c9cb81024992"
    )


# -- the corruption suite ------------------------------------------------------

def _cuts(blob: bytes):
    """``(label, data)`` for every strict prefix of ``blob``."""
    for cut in range(len(blob)):
        yield f"cut at {cut}", blob[:cut]


def _flips(blob: bytes):
    """``(label, data)`` for every byte of ``blob`` XORed with 0x01
    and with 0x20."""
    for pos in range(len(blob)):
        for mask in (0x01, 0x20):
            data = bytearray(blob)
            data[pos] ^= mask
            yield f"byte {pos} ^ {mask:#04x}", bytes(data)


def _damage(blob: bytes):
    yield from _cuts(blob)
    yield from _flips(blob)


def test_checkpoint_file(tmp_path):
    path = save_checkpoint(CheckpointConfig(dir=tmp_path), _CKPT_PAYLOAD)
    for label, data in _damage(path.read_bytes()):
        path.write_bytes(data)
        try:
            got = load_checkpoint(path)
        except CheckpointError:
            continue
        assert got == _CKPT_PAYLOAD, label


def test_world_file(tmp_path):
    path = tmp_path / "world.json"
    save_world_snapshot(str(path), _SNAP)
    for label, data in _damage(path.read_bytes()):
        path.write_bytes(data)
        try:
            got = load_world_snapshot(str(path))
        except CheckpointError:
            continue
        assert got == _SNAP, label


def test_cache_entry(tmp_path):
    cache = ResultCache(tmp_path, on_corruption=lambda key, reason: None)
    key = cache.key("scenario", "fig1", 7, {"sim_s": 0.2})
    cache.store(key, _METRICS)
    path = cache._path(key)
    for label, data in _damage(path.read_bytes()):
        path.write_bytes(data)
        dropped = cache.corrupt_dropped
        got = cache.load(key)
        if got is None:
            assert cache.corrupt_dropped == dropped + 1, label
            assert not path.exists(), label
        else:
            assert got == _METRICS, label


class TestManifest:
    @pytest.fixture
    def manifest(self, tmp_path):
        m = RunManifest(tmp_path / "manifest.jsonl")
        jobs = [SweepJob("scenario", "fig1", s, {"sim_s": 0.2}) for s in (1, 2)]
        m.write_header("run-1", jobs, "record")
        m.record_running(0, 1, pid=7)
        m.record_done(0, 1, _METRICS)
        m.record_failure(1, 1, "RuntimeError: boom", final=False)
        return m

    @staticmethod
    def _replay(m, data):
        m.path.write_bytes(data)
        state = m.replay()
        return dataclasses.replace(state, skipped_lines=0)

    def _prefix_states(self, m, blob):
        """``states[k]``: the replay of the first ``k`` whole lines."""
        lines = blob.splitlines(keepends=True)
        return [None] + [
            self._replay(m, b"".join(lines[:k]))
            for k in range(1, len(lines) + 1)
        ]

    def test_truncation_replays_the_whole_lines(self, manifest):
        blob = manifest.path.read_bytes()
        states = self._prefix_states(manifest, blob)
        for label, data in _cuts(blob):
            whole = data.count(b"\n")
            if whole == 0:
                with pytest.raises(CacheCorruption):
                    self._replay(manifest, data)
            else:
                assert self._replay(manifest, data) == states[whole], label

    def test_flip_raises_or_drops_only_the_final_record(self, manifest):
        blob = manifest.path.read_bytes()
        states = self._prefix_states(manifest, blob)
        for label, data in _flips(blob):
            try:
                state = self._replay(manifest, data)
            except CacheCorruption:
                continue
            assert state in (states[-1], states[-2]), label


def test_append_after_a_torn_tail_starts_a_new_line(tmp_path):
    """A crash mid-append leaves an unterminated fragment; the next
    append drops it instead of merging with it, at every cut of the
    last record."""
    path = tmp_path / "log.jsonl"
    append_record(path, "log/1", {"n": 0})
    whole = path.read_bytes()
    append_record(path, "log/1", {"n": 1, "note": "résex"})
    torn = path.read_bytes()[len(whole):]
    for cut in range(len(torn)):
        path.write_bytes(whole + torn[:cut])
        append_record(path, "log/1", {"n": 2})
        assert read_records(path, "log/1", CacheCorruption) == (
            [{"n": 0}, {"n": 2}], 0
        ), f"cut at {cut}"
    path.write_bytes(b'{"digest":"ab')
    append_record(path, "log/1", {"n": 3})
    assert read_records(path, "log/1", CacheCorruption) == ([{"n": 3}], 0)
