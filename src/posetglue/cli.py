"""Command-line front end: posets, gluings, and verification pipelines.

Commands operate on small JSON files (formats documented in the owning
modules).  Commands that report emit a human-readable summary by default
and canonical JSON with --json; `poset op` and `glue build` always print
the poset they make as JSON.  `poset check`, `poset hasse`, `poset op`,
`glue build` and `verify theorem` also write their orders as DOT drawings
with --dot DIR.  A command accepts only the flags it reads.  Reports are
deterministic: the same inputs, seed, field, and trial count produce
byte-identical JSON.

Exit codes: 0 all passed; 1 input or validation failure; 2 verification
failure; 3 parse error (bad files or bad command lines) or an input above
a size cap (SizeLimit); 4 internal error,
an InternalInconsistency raised by a defect in the library, reported on
stderr without a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .abelian_eval import Field
from .errors import InternalInconsistency, ParseError, PosetGlueError, SizeLimit
from .gluing import (
    build_minus,
    build_plus,
    gluing_from_json,
)
from .harness import (
    FIGURE_ONE_PAIRS,
    counterexample_data,
    figure_one_gluing,
    verify_bgp_path,
    verify_equivalence,
    verify_two_chain,
    verify_x1z,
)
from .poset_core import (
    direct_sum,
    opposite,
    ordinal_sum,
    poset_from_generators,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    product,
)

# --- plumbing -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with the documented parse-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _load_doc(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _load_poset(path: str):
    return poset_from_json(_load_doc(path))


def _write_dot(ns, poset, name: str) -> None:
    if ns.dot:
        path = Path(ns.dot) / f"{name}.dot"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(poset_to_dot(poset, name))
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _run_args(ns) -> dict:
    """The shared run flags as keyword arguments of the verify_* calls, which
    bound them before any work starts."""
    return {
        "trials": ns.trials,
        "seed": ns.seed,
        "field": Field.parse(ns.field),
        "max_dim": ns.max_dim,
        "window": tuple(ns.window),
    }


def _emit(ns, doc, lines) -> None:
    if ns.json:
        print(_dumps(doc))
    else:
        for line in lines:
            print(line)


def _cert_lines(doc) -> list:
    structural = doc["structural"]
    trials = doc["trials"]
    passed = sum(1 for t in trials if t["verdict"])
    lines = [doc["description"]]
    cfg = doc["config"]
    lines.append(
        f"  field {cfg['field']}, seed {cfg['seed']}, {cfg['trials']} trials, "
        f"degrees {cfg['window']}, dims <= {cfg['max_dim']}"
    )
    for check in structural:
        lines.append(f"  check {check['name']}: {'pass' if check['pass'] else 'FAIL'}")
    lines.append(f"  trials passed: {passed}/{len(trials)}")
    lines.append(f"  result: {'PASS' if doc['ok'] else 'FAIL'}")
    return lines


def _finish_cert(ns, cert) -> int:
    doc = cert.to_json()
    _emit(ns, doc, _cert_lines(doc))
    return 0 if doc["ok"] else 2


def _finish_bgp(ns, report) -> int:
    """Emit a reflection-path report of verify_bgp_path."""
    lines = [report["description"]]
    for step in report["steps"]:
        lines.append(
            f"  reflect at {step['vertex']} ({step['kind']}): "
            f"{'pass' if step['ok'] else 'FAIL'}"
        )
    lines.append(f"  path length: {report['path_length']}")
    lines.append(f"  result: {'PASS' if report['ok'] else 'FAIL'}")
    _emit(ns, report, lines)
    return 0 if report["ok"] else 2


# --- poset commands ---------------------------------------------------------------

def _cmd_poset_check(ns) -> int:
    p = _load_poset(ns.file)
    _write_dot(ns, p, Path(ns.file).stem)
    _emit(
        ns,
        {"ok": True, "elements": len(p), "relations": len(p.leq)},
        [f"OK: poset with {len(p)} elements and {len(p.leq)} relations"],
    )
    return 0


def _cmd_poset_hasse(ns) -> int:
    p = _load_poset(ns.file)
    name = Path(ns.file).stem
    dot = poset_to_dot(p, name)
    _write_dot(ns, p, name)
    _emit(ns, {"name": name, "dot": dot}, [dot])
    return 0


_POSET_OPS = {
    "ordinal-sum": (2, ordinal_sum),
    "direct-sum": (2, direct_sum),
    "product": (2, product),
    "opposite": (1, opposite),
}


def _cmd_poset_op(ns) -> int:
    arity, fn = _POSET_OPS[ns.name]
    if len(ns.files) != arity:
        raise ParseError(
            f"operation {ns.name!r} takes {arity} poset file(s), got {len(ns.files)}"
        )
    result = fn(*[_load_poset(f) for f in ns.files])
    _write_dot(ns, result, ns.name)
    print(_dumps(poset_to_json(result)))
    return 0


def _cmd_poset_iso(ns) -> int:
    from .poset_core import is_isomorphic  # the one isomorphism search

    a = _load_poset(ns.a)
    b = _load_poset(ns.b)
    mapping = is_isomorphic(a, b)
    if mapping is None:
        _emit(ns, {"isomorphic": False}, ["none"])
        return 1
    _emit(
        ns,
        {"isomorphic": True, "mapping": mapping},
        [f"{x} -> {mapping[x]}" for x in a.elements],
    )
    return 0


# --- glue commands ------------------------------------------------------------------

def _cmd_glue_validate(ns) -> int:
    g = gluing_from_json(_load_doc(ns.file))
    sizes = sorted({len(v) for v in g.Yx.values()})
    _emit(
        ns,
        {
            "ok": True,
            "X": len(g.X),
            "Y": len(g.Y),
            "witness_set_sizes": sizes,
        },
        [
            f"OK: gluing of {len(g.X)} elements against {len(g.Y)}, "
            f"witness sets of size {sizes}"
        ],
    )
    return 0


def _cmd_glue_build(ns) -> int:
    g = gluing_from_json(_load_doc(ns.file))
    built = build_plus(g) if ns.mode == "plus" else build_minus(g)
    name = f"{Path(ns.file).stem}-{ns.mode}"
    _write_dot(ns, built.poset, name)
    print(_dumps(poset_to_json(built.poset)))
    return 0


# --- verify commands ----------------------------------------------------------------

def _cmd_verify_two_chain(ns) -> int:
    return _finish_cert(ns, verify_two_chain(**_run_args(ns)))


def _cmd_verify_theorem(ns) -> int:
    g = gluing_from_json(_load_doc(ns.gluing))
    if ns.dot:
        _write_dot(ns, build_plus(g).poset, f"{Path(ns.gluing).stem}-plus")
        _write_dot(ns, build_minus(g).poset, f"{Path(ns.gluing).stem}-minus")
    return _finish_cert(ns, verify_equivalence(g, **_run_args(ns)))


def _cmd_verify_bgp(ns) -> int:
    tree = _load_poset(ns.tree)
    fro = _load_poset(ns.from_file)
    to = _load_poset(ns.to)
    return _finish_bgp(ns, verify_bgp_path(tree, fro, to, **_run_args(ns)))


def _cmd_verify_x1z(ns) -> int:
    X = _load_poset(ns.x)
    Z = _load_poset(ns.z)
    return _finish_cert(ns, verify_x1z(X, Z, **_run_args(ns)))


# --- demos ---------------------------------------------------------------------------

def _cmd_demo(ns) -> int:
    run = _run_args(ns)
    if ns.name == "two-chain":
        return _finish_cert(ns, verify_two_chain(**run))
    if ns.name == "counterexample":
        from .gluing import validate_gluing

        X, Y, Yx = counterexample_data()
        validate_gluing(X, Y, Yx)  # raises; the rejection is the demonstration
        raise InternalInconsistency("the counterexample was not rejected")
    if ns.name == "figure1":
        docs = []
        lines = []
        ok = True
        for pair in FIGURE_ONE_PAIRS:
            g, expected_plus, expected_minus = figure_one_gluing(pair)
            plus_ok = build_plus(g).poset.same_order(expected_plus)
            minus_ok = build_minus(g).poset.same_order(expected_minus)
            cert = verify_equivalence(g, **run)
            doc = cert.to_json()
            docs.append(
                {
                    "pair": list(pair),
                    "plus_isomorphic": plus_ok,
                    "minus_isomorphic": minus_ok,
                    "certificate": doc,
                }
            )
            ok = ok and plus_ok and minus_ok and doc["ok"]
            lines.append(
                f"{pair[0]} against {pair[1]}: orders "
                f"{'match' if plus_ok and minus_ok else 'DIFFER'}, "
                f"verification {'PASS' if doc['ok'] else 'FAIL'}"
            )
        lines.append(f"result: {'PASS' if ok else 'FAIL'}")
        _emit(ns, {"pairs": docs, "ok": ok}, lines)
        return 0 if ok else 2
    if ns.name == "bgp-star":
        center, leaves = "c", ("a", "b", "d")
        verts = sorted((center,) + leaves)
        out_edges = [(center, leaf) for leaf in leaves]
        tree = poset_from_generators(verts, out_edges)
        source = tree
        sink = poset_from_generators(verts, [(b, a) for a, b in out_edges])
        return _finish_bgp(ns, verify_bgp_path(source, source, sink, **run))
    # x1z: a two-element chain over a two-element antichain
    X = poset_from_generators(["a", "b"], [("a", "b")])
    Z = poset_from_generators(["u", "v"], [])
    return _finish_cert(ns, verify_x1z(X, Z, **run))


# --- parser ----------------------------------------------------------------------------

def _add_json_flag(parser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit the full report as canonical JSON"
    )


def _add_dot_flag(parser) -> None:
    parser.add_argument(
        "--dot", metavar="DIR", help="also write DOT drawings into this directory"
    )


def _add_run_flags(parser) -> None:
    parser.add_argument(
        "--trials", type=int, default=100, help="number of randomized trials"
    )
    parser.add_argument("--seed", type=int, default=0, help="64-bit base seed")
    parser.add_argument(
        "--field",
        default="q",
        help='coefficient field: "q" or "p:<prime>" (default q)',
    )
    parser.add_argument(
        "--max-dim", type=int, default=3, help="largest random stalk dimension"
    )
    parser.add_argument(
        "--window",
        type=int,
        nargs=2,
        default=(-2, 2),
        metavar=("LO", "HI"),
        help="degree window for random complexes",
    )
    _add_json_flag(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetglue",
        description="build glued poset orders and certify their derived equivalences",
    )
    top = parser.add_subparsers(dest="command", required=True)

    poset = top.add_parser("poset", help="inspect and combine posets")
    psub = poset.add_subparsers(dest="subcommand", required=True)
    p_check = psub.add_parser("check", help="validate a poset JSON file")
    p_check.add_argument("file")
    _add_json_flag(p_check)
    _add_dot_flag(p_check)
    p_check.set_defaults(func=_cmd_poset_check)
    p_hasse = psub.add_parser("hasse", help="emit the covering relation as DOT")
    p_hasse.add_argument("file")
    _add_json_flag(p_hasse)
    _add_dot_flag(p_hasse)
    p_hasse.set_defaults(func=_cmd_poset_hasse)
    p_op = psub.add_parser("op", help="apply a poset operation")
    p_op.add_argument("name", choices=sorted(_POSET_OPS))
    p_op.add_argument("files", nargs="+")
    _add_dot_flag(p_op)
    p_op.set_defaults(func=_cmd_poset_op)
    p_iso = psub.add_parser("iso", help="search for an order isomorphism")
    p_iso.add_argument("a")
    p_iso.add_argument("b")
    _add_json_flag(p_iso)
    p_iso.set_defaults(func=_cmd_poset_iso)

    glue = top.add_parser("glue", help="validate gluing data and build glued orders")
    gsub = glue.add_subparsers(dest="subcommand", required=True)
    g_val = gsub.add_parser("validate", help="check gluing data, reporting witnesses")
    g_val.add_argument("file")
    _add_json_flag(g_val)
    g_val.set_defaults(func=_cmd_glue_validate)
    g_build = gsub.add_parser("build", help="write one of the two glued orders")
    g_build.add_argument("file")
    g_build.add_argument("--mode", choices=("plus", "minus"), required=True)
    _add_dot_flag(g_build)
    g_build.set_defaults(func=_cmd_glue_build)

    verify = top.add_parser("verify", help="run a verification pipeline")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    v_two = vsub.add_parser("two-chain", help="the two-element chain instance")
    _add_run_flags(v_two)
    v_two.set_defaults(func=_cmd_verify_two_chain)
    v_thm = vsub.add_parser("theorem", help="the equivalence for a gluing file")
    v_thm.add_argument("--gluing", required=True, help="gluing JSON file")
    _add_run_flags(v_thm)
    _add_dot_flag(v_thm)
    v_thm.set_defaults(func=_cmd_verify_theorem)
    v_bgp = vsub.add_parser("bgp", help="a reflection path between tree orientations")
    v_bgp.add_argument("--tree", required=True, help="tree orientation JSON file")
    v_bgp.add_argument(
        "--from", dest="from_file", required=True, help="starting orientation"
    )
    v_bgp.add_argument("--to", required=True, help="target orientation")
    _add_run_flags(v_bgp)
    v_bgp.set_defaults(func=_cmd_verify_bgp)
    v_x1z = vsub.add_parser("x1z", help="the ordinal gluing of X under a point under Z")
    v_x1z.add_argument("--x", required=True, help="poset JSON file for X")
    v_x1z.add_argument("--z", required=True, help="poset JSON file for Z")
    _add_run_flags(v_x1z)
    v_x1z.set_defaults(func=_cmd_verify_x1z)

    demo = top.add_parser("demo", help="run a bundled dataset end to end")
    demo.add_argument(
        "name",
        choices=("figure1", "counterexample", "two-chain", "bgp-star", "x1z"),
    )
    _add_run_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), made on the first call and kept for the process:
    parsing changes nothing in a parser, and each command looks up the
    library functions it calls when it runs."""
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return ns.func(ns)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        # a defect in the library, not in the input: no traceback, and its own code
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except PosetGlueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
