"""Fuzzed input boundary: any JSON document either loads or raises a
PosetGlueError, and ``posetglue glue validate`` exits 0, 1 or 3 on any
file contents, never with a raw traceback."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetglue import cli
from posetglue.errors import PosetGlueError
from posetglue.gluing import gluing_from_json
from posetglue.poset_core import poset_from_json

NAMES = st.sampled_from(["a", "b", "c", "x", "y"])
KEYS = st.sampled_from(["elements", "relations", "X", "Y", "Yx", "f", "Y0"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    NAMES,
    st.text(max_size=3),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(KEYS, NAMES), inner, max_size=4),
    ),
    max_leaves=12,
)
POSETS = st.fixed_dictionaries(
    {"elements": st.one_of(st.lists(NAMES, max_size=4), JSON)},
    optional={
        "relations": st.one_of(
            st.lists(st.lists(NAMES, max_size=3), max_size=5), JSON
        )
    },
)
GLUINGS = st.fixed_dictionaries(
    {"X": st.one_of(POSETS, JSON), "Y": st.one_of(POSETS, JSON)},
    optional={
        "Yx": st.one_of(st.dictionaries(NAMES, st.lists(NAMES, max_size=3)), JSON),
        "f": st.one_of(st.dictionaries(NAMES, NAMES), JSON),
        "Y0": st.one_of(st.lists(NAMES, max_size=3), JSON),
    },
)
FILES = st.one_of(
    GLUINGS.map(lambda doc: json.dumps(doc).encode()),
    JSON.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=12),
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(POSETS, JSON))
def test_poset_documents_load_or_raise_a_posetglue_error(doc):
    try:
        poset_from_json(doc)
    except PosetGlueError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.one_of(GLUINGS, JSON))
def test_gluing_documents_load_or_raise_a_posetglue_error(doc):
    try:
        gluing_from_json(doc)
    except PosetGlueError:
        pass


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "gluing.json"


@settings(max_examples=40, deadline=None)
@given(FILES)
def test_glue_validate_exits_0_1_or_3(doc_path, contents):
    doc_path.write_bytes(contents)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["glue", "validate", str(doc_path)])
    assert code in (0, 1, 3), out.getvalue()
