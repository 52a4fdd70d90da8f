"""``repro.durable.canonical_digest`` is persisted, so its bytes are pinned."""

from repro.durable import canonical_digest
from repro.parallel.cache import cell_key
from repro.service.world import save_world_snapshot
from repro.supervise.manifest import result_digest

_DOC = {"b": [1, 2.5, None], "a": {"z": True, "y": "résex"}, "n": -0.125}
_DOC_DIGEST = "a8991d551bdcf7cb3d1e6a606636ff93fcb317d5620448a319456e78f3e7ef42"


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
