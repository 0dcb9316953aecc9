"""The pinned certificate corpus: named inputs whose certificates must stay
byte-identical from one change of the program to the next.

    python3 -m pytest certs      # every certificate against expected.json
    python3 certs/record.py      # rewrite expected.json from this checkout

Run from the repository root.  expected.json holds, per certificate, the
SHA-256 of its canonical JSON and a short digest of each of its key paths
down to depth 2 (as /trials/3 or /config/window), so that a mismatch names
the certificate and the first key path that differs.  Only
a deliberate change of the certificate schema rewrites it, and says so in
CHANGES.md.  The suite lies outside the Tier-1 testpaths, as perfbench
does.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
from functools import partial
from pathlib import Path

from posetglue import (
    FIGURE_ONE_PAIRS,
    figure_one_gluing,
    poset_from_generators,
    random_gluing,
    verify_equivalence,
    verify_two_chain,
    verify_x1z,
)
from posetglue.abelian_eval import RATIONALS, Field
from posetglue.cli import main

EXPECTED = Path(__file__).with_name("expected.json")

#: How deep expected.json records the digests of a document's key paths.
DEPTH = 2

FIELDS = {"q": RATIONALS, "f5": Field(5)}

#: The x1z pairs of the report pins in tests/test_harness.py: generators of
#: X and of Z.
X1Z_PAIRS = {
    "chain-antichain": ((["a", "b"], [("a", "b")]), (["u", "v"], [])),
    "vee-chain": ((["a", "b", "c"], [("a", "b"), ("a", "c")]), (["u", "v"], [("u", "v")])),
    "colliding-labels": ((["*", "a"], [("a", "*")]), (["*", "a", "b"], [("*", "b")])),
}


def _chain_of_chains(n: int, k: int):
    """The gluing chain_of_chains(n, k) of tests/conftest.py, loaded from
    that file, so that the corpus and Tier-1 build the same gluings."""
    path = Path(__file__).resolve().parents[1] / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("tier1_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.chain_of_chains(n, k)


def _equivalence(gluing, trials: int, seed: int, field: Field) -> dict:
    return verify_equivalence(gluing(), trials=trials, seed=seed, field=field).to_json()


def _x1z(x, z, field: Field) -> dict:
    X, Z = poset_from_generators(*x), poset_from_generators(*z)
    return verify_x1z(X, Z, trials=2, field=field, max_dim=2, window=(-1, 1)).to_json()


def _cli(argv: list) -> dict:
    """The JSON output of the command argv, with its exit code under
    "exit"."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, **json.loads(out.getvalue())}


def certificates() -> dict:
    """Every certificate of the corpus, by name, as a function that issues
    it and returns its JSON document."""
    cases = {}
    for pair in FIGURE_ONE_PAIRS:
        gluing = partial(lambda pair: figure_one_gluing(pair)[0], pair)
        for name, field in FIELDS.items():
            for trials in (1, 20):
                for seed in range(3):
                    cases[f"figure1-{'-'.join(pair)}-{name}-t{trials}-s{seed}"] = partial(
                        _equivalence, gluing, trials, seed, field
                    )
    for s in range(60):
        for name, field in FIELDS.items():
            cases[f"random{s}-{name}-t5"] = partial(
                _equivalence, partial(random_gluing, s), 5, 0, field
            )
    for n, k in ((6, 3), (10, 4), (20, 9)):
        for name, field in FIELDS.items():
            cases[f"chains-{n}-{k}-{name}-t1"] = partial(
                _equivalence, partial(_chain_of_chains, n, k), 1, 0, field
            )
    for name, field in FIELDS.items():
        cases[f"two-chain-{name}-t10"] = partial(
            lambda field: verify_two_chain(trials=10, field=field).to_json(), field
        )
        for pair, (x, z) in X1Z_PAIRS.items():
            cases[f"x1z-{pair}-{name}-t2"] = partial(_x1z, x, z, field)
    cases["cli-demo-bgp-star"] = partial(_cli, ["demo", "bgp-star", "--json"])
    cases["cli-demo-figure1"] = partial(_cli, ["demo", "figure1", "--json"])
    return cases


def _digest(doc) -> str:
    """The SHA-256 of doc's canonical JSON."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _key_paths(doc, depth: int = DEPTH, path: str = ""):
    """(key path, doc at it) for each key path of doc that ends at depth
    or at a value that is no container, or is an empty one, in document
    order."""
    if depth and isinstance(doc, (dict, list)) and doc:
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _key_paths(value, depth - 1, f"{path}/{key}")
    else:
        yield path or "/", doc


def record(doc) -> dict:
    """What expected.json keeps of a certificate document."""
    return {
        "sha256": _digest(doc),
        "paths": {path: _digest(value)[:16] for path, value in _key_paths(doc)},
    }


def first_difference(expected: dict, actual: dict) -> str | None:
    """None if the two records are of one document, otherwise a message
    naming the first key path, in the issued document's order, whose value
    differs, that is new, or that is gone."""
    if expected["sha256"] == actual["sha256"]:
        return None
    was, now = expected["paths"], actual["paths"]
    for path, digest in now.items():
        if path not in was:
            return f"the key path {path} is new"
        if was[path] != digest:
            return f"the first key path that differs is {path}"
    gone = next((path for path in was if path not in now), None)
    if gone is not None:
        return f"the key path {gone} is gone"
    return "the documents differ in the order of their key paths"
