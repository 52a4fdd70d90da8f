"""Fences around the ``repro`` command line: its parser surface and output bytes.

The parser-surface test walks :func:`repro.cli.build_parser` and compares
every subcommand's options (option strings, ``dest``, default, choices,
``nargs``, type and ``required``; help text excluded) with the snapshot in
``tests/cli_surface.json``.  The output fences pin the sha256 of stdout for
one run of each main command (JSON documents with their host-timing fields
dropped), so a refactor of the CLI cannot move a byte of what it prints.

Regenerate the snapshot (only for a deliberate surface change) with::

    PYTHONPATH=src python -m tests.test_cli_fences
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib

import pytest

from repro.cli import build_parser, main

SNAPSHOT = pathlib.Path(__file__).with_name("cli_surface.json")


def _record(action: argparse.Action) -> dict:
    choices = action.choices
    return {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if choices is None else list(choices),
        "nargs": action.nargs,
        "type": None if action.type is None else action.type.__name__,
        "required": action.required,
    }


def cli_surface() -> dict:
    """Every action of every parser, keyed ``"<command> <flags>"``.

    Positionals parse in declaration order, so they are keyed by their
    index; options are keyed by their flags (their order is help only).
    """
    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {}
    for name, sub in [("repro", parser), *subparsers.choices.items()]:
        positionals = [a for a in sub._actions if not a.option_strings]
        for i, action in enumerate(positionals):
            surface[f"{name} [{i}]"] = _record(action)
        for action in sub._actions:
            if action.option_strings:
                surface[f"{name} {' '.join(action.option_strings)}"] = _record(action)
    return surface


def _dump(surface: dict) -> str:
    """One action per line, so a surface change reads as a one-line diff."""
    rows = [
        f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for key, record in sorted(surface.items())
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_parser_surface_matches_snapshot():
    assert cli_surface() == json.loads(SNAPSHOT.read_text())


# -- output bytes ------------------------------------------------------------

#: Fields that measure the host, not the result, per document section.
TIMING_FIELDS = {
    "report": ("cpu_s", "utilization", "wall_s", "worker_cells", "worker_cpu_s"),
    "shard_stats": ("compute_s", "wait_s"),
}


def _run(capsys, argv, expect=0) -> str:
    assert main(argv) == expect
    return capsys.readouterr().out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _doc_sha(out: str) -> str:
    """The digest of a JSON document with its timing fields dropped.

    The raw stdout must be the canonical dump of the document, so the
    digest of the re-dumped remainder still pins every other byte.
    """
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for section, fields in TIMING_FIELDS.items():
        for key in fields:
            doc.get(section, {}).pop(key, None)
    return _sha(json.dumps(doc, indent=2, sort_keys=True) + "\n")


#: sha256 of stdout, pinned at the CLI before its option layer was shared.
#: ``cluster`` was re-captured when the price federation became cast-only
#: (rack 0's price no longer mixes with followers' echoed prices), and
#: ``sweep-failure`` when the ``follower`` policy left the registry its
#: error message lists.
STDOUT_SHA256 = {
    "cluster": "6500562b6d22b080fe2dd8f3507fcbb960c133d1d874fc56d9f6d87093bb863d",
    "chaos": "1d6b8ba429d8aab32b195e0ff7eb624e036932211f274c5d39cab2771c2ccca7",
    "scenario": "626892268cdb59d028510f5ac1331a5801a0c2c111fac4f5efa6b055c86b2a08",
    "figures": "93848762afa64bb55b4b399333b4368e4da1749e0838a2b4b697ae428ec99b6c",
    "sweep": "c2489b4f92bbcd4c1b3ee45cbe94d94af10e5bfa926de57b30b0b316d28e19b1",
    "sweep-supervised": "1ac344d3f25339698c7abc0605f06dcd431094ce20b5f7febac8d6c2d17b545c",
    "sweep-failure": "8cfde14cd667c35beacd9515d841d75f8ebe46c7212e6d8ca28bc9419f484149",
}

COMMANDS = {
    "chaos": ["chaos", "base", "--campaign", "link-flap", "--sim-s", "0.1", "--json"],
    "scenario": ["scenario", "--sim-s", "0.3"],
    "figures": ["figures", "headline"],
}

SWEEP = ["sweep", "--seeds", "2", "--sim-s", "0.2", "--json"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(capsys, monkeypatch, name):
    monkeypatch.setenv("REPRO_SCALE", "fast")
    assert _sha(_run(capsys, COMMANDS[name])) == STDOUT_SHA256[name]


def test_cluster_document_bytes(capsys):
    out = _run(capsys, ["cluster", "cluster_smoke", "--sim-s", "0.02", "--json"])
    assert _doc_sha(out) == STDOUT_SHA256["cluster"]


def test_sweep_document_bytes(capsys):
    assert _doc_sha(_run(capsys, SWEEP)) == STDOUT_SHA256["sweep"]


def test_supervised_sweep_document_bytes(capsys, tmp_path):
    argv = SWEEP + ["--supervise", "--run-dir", str(tmp_path), "--run-id", "fence"]
    assert _doc_sha(_run(capsys, argv)) == STDOUT_SHA256["sweep-supervised"]


def test_sweep_failure_document_bytes(capsys):
    out = _run(capsys, SWEEP + ["--policy", "no-such-policy"], expect=3)
    assert _sha(out) == STDOUT_SHA256["sweep-failure"]


def test_profile_document_keys(capsys):
    out = _run(capsys, ["profile", "cluster_smoke", "--sim-s", "0.01", "--json"])
    assert sorted(json.loads(out)) == [
        "buckets_frac", "buckets_s", "hotspots", "profiled_s", "wall_s"
    ]


if __name__ == "__main__":
    SNAPSHOT.write_text(_dump(cli_surface()))
