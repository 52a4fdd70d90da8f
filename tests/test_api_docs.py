"""``docs/api.md`` is generated: it must equal what ``tools/gen_api_docs.py``
writes for the current tree, so a docstring edit without a regenerated
file fails here instead of drifting."""

import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gen_api_docs.py"
_spec = importlib.util.spec_from_file_location("gen_api_docs", _TOOL)
gen_api_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_api_docs)


def test_committed_api_md_matches_the_generator():
    assert gen_api_docs.API_MD.read_text() == gen_api_docs.render(), (
        "docs/api.md is stale: run `PYTHONPATH=src python tools/gen_api_docs.py`"
    )


class _Doc:
    def __init__(self, doc):
        self.__doc__ = doc


def test_summary_is_the_first_sentence_across_lines():
    doc = _Doc("Append a record as one sealed line\nof JSON.  Then fsync.")
    assert gen_api_docs.first_sentence(doc) == "Append a record as one sealed line of JSON"


def test_abbreviations_do_not_end_a_sentence():
    doc = _Doc("Bins, e.g. the Fig. 1 view.  More.\n\nBody.")
    assert gen_api_docs.first_sentence(doc) == "Bins, e.g. the Fig. 1 view"


def test_builtin_constants_have_no_summary():
    assert gen_api_docs.first_sentence(42) == ""
    assert gen_api_docs.first_sentence(("a", "b")) == ""
