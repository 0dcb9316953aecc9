"""Command-line interface: exit codes, JSON determinism, DOT emission."""

from __future__ import annotations

import argparse
import json

import pytest

from posetglue import cli
from posetglue.cli import main
from posetglue.errors import InternalInconsistency
from posetglue.gluing import build_minus, build_plus, gluing_from_json, gluing_to_json
from posetglue.harness import FIGURE_ONE_PAIRS, figure_one_gluing
from posetglue.poset_core import (
    opposite,
    poset_from_generators,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)

from conftest import run_python

# a small run: one trial, stalks of dimension at most 2 in degrees -1..1
SMALL = ["--trials", "1", "--max-dim", "2", "--window", "-1", "1"]


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    chain3 = write(
        "chain3.json",
        {"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]},
    )
    chain3b = write(
        "chain3b.json",
        {"elements": ["x", "y", "z"], "relations": [["x", "y"], ["y", "z"]]},
    )
    anti2 = write("anti2.json", {"elements": ["u", "v"], "relations": []})
    glue_ok = write(
        "glue_ok.json",
        {
            "X": {"elements": ["a", "b"], "relations": [["a", "b"]]},
            "Y": {"elements": ["p"], "relations": []},
            "Yx": {"a": ["p"], "b": ["p"]},
        },
    )
    glue_bad = write(
        "glue_bad.json",
        {
            "X": {"elements": ["1"], "relations": []},
            "Y": {"elements": ["2", "3", "4"], "relations": [["2", "4"], ["3", "4"]]},
            "Yx": {"1": ["2", "3"]},
        },
    )
    glue_empty = write(
        "glue_empty.json",
        {"X": {"elements": []}, "Y": {"elements": []}, "Yx": {}},
    )
    path_fwd = write(
        "path_fwd.json",
        {
            "elements": ["a", "b", "c", "d"],
            "relations": [["a", "b"], ["b", "c"], ["c", "d"]],
        },
    )
    path_bwd = write(
        "path_bwd.json",
        {
            "elements": ["a", "b", "c", "d"],
            "relations": [["b", "a"], ["c", "b"], ["d", "c"]],
        },
    )
    return {
        "chain3": chain3,
        "chain3b": chain3b,
        "anti2": anti2,
        "glue_ok": glue_ok,
        "glue_bad": glue_bad,
        "glue_empty": glue_empty,
        "path_fwd": path_fwd,
        "path_bwd": path_bwd,
        "tmp": tmp_path,
    }


class TestPoset:
    def test_check_ok(self, files, capsys):
        assert main(["poset", "check", files["chain3"]]) == 0
        assert "3 elements" in capsys.readouterr().out

    def test_check_misspelled_key_exits_3(self, files, capsys):
        path = files["tmp"] / "misspelled.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "relation": [["a", "b"]]}))
        assert main(["poset", "check", str(path)]) == 3
        assert "'relation'" in capsys.readouterr().err

    def test_check_names_a_duplicate_element(self, files, capsys):
        path = files["tmp"] / "dup.json"
        path.write_text(json.dumps({"elements": ["a", "b", "a"]}))
        assert main(["poset", "check", str(path)]) == 3
        assert "duplicate element identifier 'a'" in capsys.readouterr().err

    def test_check_bad_json_exits_3(self, files, capsys):
        bad = files["tmp"] / "broken.json"
        bad.write_text("{nope")
        assert main(["poset", "check", str(bad)]) == 3
        assert "parse error" in capsys.readouterr().err

    def test_check_missing_file_exits_3(self, files, capsys):
        assert main(["poset", "check", str(files["tmp"] / "nothere.json")]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, text",
        [
            (["glue", "validate"], "[" * 200_000),
            (["poset", "check"], '{"elements": ' + "[" * 200_000),
        ],
        ids=["glue-validate", "poset-check"],
    )
    def test_deeply_nested_json_exits_3(self, files, capsys, command, text):
        deep = files["tmp"] / "deep.json"
        deep.write_text(text)
        assert main(command + [str(deep)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_dot_dir_that_cannot_be_made_exits_3(self, files, capsys, below):
        blocker = files["tmp"] / "notadir"
        blocker.write_text("")
        dot = blocker / "sub" if below else blocker
        assert main(["poset", "check", files["chain3"], "--dot", str(dot)]) == 3
        assert f"cannot write {dot}" in capsys.readouterr().err

    def test_iso_found_and_not_found(self, files, capsys):
        assert main(["poset", "iso", files["chain3"], files["chain3b"]]) == 0
        out = capsys.readouterr().out
        assert "a -> x" in out
        assert main(["poset", "iso", files["chain3"], files["anti2"]]) == 1
        assert "none" in capsys.readouterr().out

    def test_op_output_parses(self, files, capsys):
        assert main(["poset", "op", "ordinal-sum", files["anti2"], files["chain3"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["elements"]) == 5

    def test_op_product_of_names_with_commas(self, files, capsys):
        left = files["tmp"] / "left.json"
        left.write_text(json.dumps({"elements": ["x,y", "x"]}))
        right = files["tmp"] / "right.json"
        right.write_text(json.dumps({"elements": ["z", "y,z"]}))
        assert main(["poset", "op", "product", str(left), str(right)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(set(doc["elements"])) == 4 and "(x\\,y,z)" in doc["elements"]

    def test_op_wrong_arity_exits_3(self, files, capsys):
        assert main(["poset", "op", "opposite", files["chain3"], files["anti2"]]) == 3
        capsys.readouterr()

    def test_hasse_emits_dot(self, files, capsys):
        assert main(["poset", "hasse", files["chain3"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and '"a" -> "b";' in out

    def test_bad_subcommand_exits_3(self, files, capsys):
        with pytest.raises(SystemExit) as info:
            main(["poset", "frobnicate"])
        assert info.value.code == 3
        capsys.readouterr()


class TestGlue:
    def test_validate_ok(self, files, capsys):
        assert main(["glue", "validate", files["glue_ok"]]) == 0
        capsys.readouterr()

    def test_validate_counterexample_exits_1_with_witness(self, files, capsys):
        assert main(["glue", "validate", files["glue_bad"]]) == 1
        err = capsys.readouterr().err
        assert "'4'" in err and "'2'" in err and "'3'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["glue", "validate", "{}"],
            ["glue", "build", "{}", "--mode", "plus"],
            ["verify", "theorem", "--gluing", "{}", "--trials", "1"],
        ],
    )
    def test_empty_gluing_exits_1(self, files, capsys, argv):
        assert main([a.format(files["glue_empty"]) for a in argv]) == 1
        assert "X ⊔ Y is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {
                    "X": {"elements": ["x1", "x2"], "relations": []},
                    "Y": {"elements": ["y"], "relations": []},
                    "f": {"x1": "y"},
                },
                "f gives no value for element 'x2'",
            ),
            ({"Y0": ["y"]}, "BGP form needs keys 'Y' and 'Y0'"),
        ],
        ids=["f-misses-an-element", "Y0-without-Y"],
    )
    def test_incomplete_gluing_exits_3(self, files, capsys, doc, message):
        path = files["tmp"] / "incomplete.json"
        path.write_text(json.dumps(doc))
        assert main(["glue", "validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert "parse error" in err and message in err

    def test_build_writes_poset_and_dot(self, files, capsys):
        dot_dir = files["tmp"] / "dot"
        assert (
            main(
                [
                    "glue",
                    "build",
                    files["glue_ok"],
                    "--mode",
                    "plus",
                    "--dot",
                    str(dot_dir),
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["elements"]) == {"a", "b", "p"}
        dots = list(dot_dir.glob("*.dot"))
        assert len(dots) == 1 and dots[0].read_text().startswith("digraph")


class TestVerify:
    def test_two_chain_passes(self, files, capsys):
        assert main(["verify", "two-chain", "--trials", "3"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_theorem_passes(self, files, capsys):
        rc = main(
            [
                "verify",
                "theorem",
                "--gluing",
                files["glue_ok"],
                "--trials",
                "3",
                "--max-dim",
                "2",
                "--window",
                "-1",
                "1",
            ]
        )
        assert rc == 0
        capsys.readouterr()

    def test_theorem_writes_both_orders_as_dot(self, files, capsys):
        argv = ["verify", "theorem", "--gluing", files["glue_ok"], "--trials", "2",
                "--max-dim", "2", "--window", "-1", "1", "--json"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        dot_dir = files["tmp"] / "dot"
        assert main(argv + ["--dot", str(dot_dir)]) == 0
        assert capsys.readouterr().out == report
        with open(files["glue_ok"]) as fh:
            g = gluing_from_json(json.load(fh))
        drawn = {p.name: p.read_text() for p in dot_dir.iterdir()}
        assert drawn == {
            "glue_ok-plus.dot": poset_to_dot(build_plus(g).poset, "glue_ok-plus"),
            "glue_ok-minus.dot": poset_to_dot(build_minus(g).poset, "glue_ok-minus"),
        }

    def test_theorem_dot_dir_fails_before_verification(
        self, files, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("verification started before the DOT files were written")

        monkeypatch.setattr(cli, "verify_equivalence", no_work)
        blocker = files["tmp"] / "notadir"
        blocker.write_text("")
        argv = ["verify", "theorem", "--gluing", files["glue_ok"], "--dot", str(blocker)]
        assert main(argv) == 3
        assert f"cannot write {blocker}" in capsys.readouterr().err

    def test_theorem_on_invalid_gluing_exits_1(self, files, capsys):
        rc = main(["verify", "theorem", "--gluing", files["glue_bad"], "--trials", "3"])
        assert rc == 1
        capsys.readouterr()

    def test_bgp_passes(self, files, capsys):
        rc = main(
            [
                "verify",
                "bgp",
                "--tree",
                files["path_fwd"],
                "--from",
                files["path_fwd"],
                "--to",
                files["path_bwd"],
                "--trials",
                "2",
                "--max-dim",
                "2",
                "--window",
                "-1",
                "1",
            ]
        )
        assert rc == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_x1z_passes(self, files, capsys):
        rc = main(
            [
                "verify",
                "x1z",
                "--x",
                files["anti2"],
                "--z",
                files["chain3"],
                "--trials",
                "2",
                "--max-dim",
                "2",
                "--window",
                "-1",
                "1",
            ]
        )
        assert rc == 0
        capsys.readouterr()

    def test_json_reports_are_byte_identical(self, files, capsys):
        argv = ["verify", "two-chain", "--trials", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["ok"] is True

    def test_field_flag_changes_config_not_tables(self, files, capsys):
        assert main(["verify", "two-chain", "--trials", "3", "--json"]) == 0
        q = json.loads(capsys.readouterr().out)
        assert (
            main(["verify", "two-chain", "--trials", "3", "--field", "p:5", "--json"])
            == 0
        )
        p5 = json.loads(capsys.readouterr().out)
        assert q["trials"] == p5["trials"]
        assert q["config"] != p5["config"]

    def test_jobs_flag_is_a_usage_error(self, files, capsys):
        # trials run in the calling process; there is no process pool
        with pytest.raises(SystemExit) as info:
            main(["verify", "two-chain", "--trials", "4", "--jobs", "2"])
        assert info.value.code == 3
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_bad_field_exits_3(self, files, capsys):
        assert main(["verify", "two-chain", "--field", "p:4"]) == 3
        capsys.readouterr()

    def test_zero_trials_exits_3(self, files, capsys):
        assert main(["verify", "two-chain", "--trials", "0"]) == 3
        capsys.readouterr()

    def test_empty_window_exits_3(self, files, capsys):
        assert main(["verify", "two-chain", "--window", "2", "-1"]) == 3
        capsys.readouterr()

    def test_window_wider_than_the_rng_exits_3(self, files, capsys):
        window = ["--window", "0", str(2**64)]
        assert main(["verify", "two-chain", "--trials", "1", *window]) == 3
        assert "2**64" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_3(self, files, capsys, seed):
        assert main(["verify", "two-chain", "--trials", "1", "--seed", seed]) == 3
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("max_dim", ["-1", "0"])
    def test_max_dim_below_one_exits_3(self, files, capsys, max_dim):
        assert main(["verify", "two-chain", "--trials", "1", "--max-dim", max_dim]) == 3
        assert "max_dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "X": {"elements": ["x"], "relations": []},
                "Y": {"elements": ["a", "b"], "relations": [[["a"], "b"]]},
                "Yx": {"x": ["a"]},
            },
            {
                "X": {"elements": ["x"], "relations": []},
                "Y": {"elements": ["y"], "relations": []},
                "Yx": {"x": [["y"]]},
            },
            {
                "X": {"elements": ["x"], "relations": []},
                "Y": {"elements": ["y"], "relations": []},
                "f": {"x": ["y"]},
            },
            {"Y": {"elements": ["y"], "relations": []}, "Y0": [["y"]]},
        ],
        ids=["relation", "Yx", "f", "Y0"],
    )
    def test_non_string_element_exits_3(self, files, capsys, doc):
        path = files["tmp"] / "nested.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "theorem", "--gluing", str(path), "--trials", "1"]) == 3
        assert "parse error" in capsys.readouterr().err

    def test_mixed_forms_exit_3(self, files, capsys):
        doc = {
            "X": {"elements": ["x", "q"], "relations": []},
            "Y": {"elements": ["y"], "relations": []},
            "Y0": ["y"],
        }
        path = files["tmp"] / "mixed.json"
        path.write_text(json.dumps(doc))
        assert main(["glue", "validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert "'X'" in err and "'Y0'" in err

    def test_misspelled_nested_key_exits_3(self, files, capsys):
        # spelled right, y <= z makes the witnesses an AntichainViolation
        doc = {
            "X": {"elements": ["x"]},
            "Y": {"elements": ["y", "z"], "relatons": [["y", "z"]]},
            "Yx": {"x": ["y", "z"]},
        }
        path = files["tmp"] / "misspelled.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "theorem", "--gluing", str(path), "--trials", "1"]) == 3
        assert "'relatons'" in capsys.readouterr().err
        doc["Y"]["relations"] = doc["Y"].pop("relatons")
        path.write_text(json.dumps(doc))
        assert main(["verify", "theorem", "--gluing", str(path), "--trials", "1"]) == 1

    def test_unknown_f_key_exits_1(self, files, capsys):
        doc = {
            "X": {"elements": ["x"], "relations": []},
            "Y": {"elements": ["y"], "relations": []},
            "f": {"x": "y", "nope": "y"},
        }
        path = files["tmp"] / "unknown.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "theorem", "--gluing", str(path), "--trials", "1"]) == 1
        assert "'nope'" in capsys.readouterr().err


class TestDemo:
    def test_counterexample_exits_1(self, files, capsys):
        assert main(["demo", "counterexample"]) == 1
        assert "'4'" in capsys.readouterr().err

    def test_two_chain(self, files, capsys):
        assert main(["demo", "two-chain", "--trials", "2"]) == 0
        capsys.readouterr()

    def test_x1z(self, files, capsys):
        rc = main(
            ["demo", "x1z", "--trials", "2", "--max-dim", "2", "--window", "-1", "1"]
        )
        assert rc == 0
        capsys.readouterr()

    def test_bgp_star(self, files, capsys):
        assert main(["demo", "bgp-star", *SMALL]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "reflection path between two tree orientations"
        assert lines[-2:] == ["  path length: 1", "  result: PASS"]
        assert all(line.startswith("  reflect at ") for line in lines[1:-2])

    def test_figure1_json(self, files, capsys):
        rc = main(
            [
                "demo",
                "figure1",
                "--trials",
                "2",
                "--max-dim",
                "2",
                "--window",
                "-1",
                "1",
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["pairs"]) == 3
        for entry in doc["pairs"]:
            assert entry["plus_isomorphic"] and entry["minus_isomorphic"]


RUN_FLAGS = {"--trials", "--seed", "--field", "--max-dim", "--window", "--json"}

# The option strings each subcommand accepts: --json where it prints a
# report, --dot DIR where it draws orders, the run flags on verify and demo.
SURFACE = {
    ("poset", "check"): {"--json", "--dot"},
    ("poset", "hasse"): {"--json", "--dot"},
    ("poset", "op"): {"--dot"},
    ("poset", "iso"): {"--json"},
    ("glue", "validate"): {"--json"},
    ("glue", "build"): {"--mode", "--dot"},
    ("verify", "two-chain"): RUN_FLAGS,
    ("verify", "theorem"): RUN_FLAGS | {"--gluing", "--dot"},
    ("verify", "bgp"): RUN_FLAGS | {"--tree", "--from", "--to"},
    ("verify", "x1z"): RUN_FLAGS | {"--x", "--z"},
    ("demo",): RUN_FLAGS,
}

BGP = ["--tree", "{path_fwd}", "--from", "{path_fwd}", "--to", "{path_bwd}"]
X1Z = ["--x", "{anti2}", "--z", "{chain3}"]


def _leaf_parsers(parser, path=()):
    """(command path, parser) of every command that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def _argv(files, argv) -> list:
    return [a.format(**files) for a in argv]


class TestSurface:
    def test_each_command_accepts_only_the_flags_it_reads(self):
        surface = {
            path: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for path, p in _leaf_parsers(cli.build_parser())
        }
        assert surface == SURFACE

    @pytest.mark.parametrize(
        "argv",
        [
            ["poset", "op", "opposite", "{chain3}", "--json"],
            ["glue", "build", "{glue_ok}", "--mode", "plus", "--json"],
            ["poset", "iso", "{chain3}", "{chain3b}", "--dot", "{tmp}"],
            ["glue", "validate", "{glue_ok}", "--dot", "{tmp}"],
            ["verify", "two-chain", *SMALL, "--dot", "{tmp}"],
            ["verify", "bgp", *BGP, *SMALL, "--dot", "{tmp}"],
            ["verify", "x1z", *X1Z, *SMALL, "--dot", "{tmp}"],
            ["demo", "two-chain", *SMALL, "--dot", "{tmp}"],
        ],
        ids=[
            "poset-op-json",
            "glue-build-json",
            "poset-iso-dot",
            "glue-validate-dot",
            "verify-two-chain-dot",
            "verify-bgp-dot",
            "verify-x1z-dot",
            "demo-dot",
        ],
    )
    def test_a_flag_the_command_does_not_read_exits_3(self, files, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(_argv(files, argv))
        assert info.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name, draw",
        [
            (["poset", "check", "{chain3}"], "chain3", lambda p: p),
            (["poset", "hasse", "{chain3}"], "chain3", lambda p: p),
            (["poset", "op", "opposite", "{chain3}"], "opposite", opposite),
        ],
        ids=["poset-check", "poset-hasse", "poset-op"],
    )
    def test_dot_draws_the_order(self, files, capsys, argv, name, draw):
        argv = _argv(files, argv)
        assert main(argv) == 0
        out = capsys.readouterr().out
        dot_dir = files["tmp"] / "dot"
        assert main(argv + ["--dot", str(dot_dir)]) == 0
        assert capsys.readouterr().out == out
        with open(files["chain3"]) as fh:
            poset = draw(poset_from_json(json.load(fh)))
        drawn = {p.name: p.read_text() for p in dot_dir.iterdir()}
        assert drawn == {f"{name}.dot": poset_to_dot(poset, name)}

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["poset", "check", "{chain3}"], "relations"),
            (["poset", "hasse", "{chain3}"], "dot"),
            (["poset", "iso", "{chain3}", "{chain3b}"], "mapping"),
            (["glue", "validate", "{glue_ok}"], "witness_set_sizes"),
            (["verify", "two-chain", *SMALL], "trials"),
            (["verify", "theorem", "--gluing", "{glue_ok}", *SMALL], "trials"),
            (["verify", "bgp", *BGP, *SMALL], "steps"),
            (["verify", "x1z", *X1Z, *SMALL], "trials"),
            (["demo", "bgp-star", *SMALL], "steps"),
        ],
        ids=[
            "poset-check",
            "poset-hasse",
            "poset-iso",
            "glue-validate",
            "verify-two-chain",
            "verify-theorem",
            "verify-bgp",
            "verify-x1z",
            "demo-bgp-star",
        ],
    )
    def test_json_prints_the_report_as_canonical_json(self, files, capsys, argv, key):
        argv = _argv(files, argv)
        code = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--json"]) == code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert key in doc
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)


class TestParserKept:
    #: Commands that exit 0, 1 and 3, the last two of them a usage error.
    RUNS = [
        ["poset", "check", "{chain3}", "--json"],
        ["glue", "validate", "{glue_bad}"],
        ["verify", "theorem", "--gluing", "{glue_ok}", *SMALL, "--json"],
        ["verify", "two-chain", "--trials", "0"],
        ["poset", "hasse", "{chain3}"],
        ["demo", "counterexample", *SMALL],
        ["poset", "frobnicate"],
        ["verify", "two-chain", *SMALL, "--jobs", "2"],
    ]

    def test_calls_in_a_row_answer_as_first_calls(self, files, capsys, monkeypatch):
        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        runs = [_argv(files, argv) for argv in self.RUNS]
        firsts = []
        for argv in runs:
            cli._parser.cache_clear()
            firsts.append(run(argv))
        assert [code for code, _, _ in firsts] == [0, 1, 0, 3, 0, 1, 3, 3]
        assert firsts[6][2].startswith("usage: posetglue poset [-h]")
        assert firsts[7][2].startswith("usage: posetglue [-h]")
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        assert [run(argv) for argv in runs + runs] == firsts + firsts
        assert len(built) == 1


#: The CLI in a child process, with verify_two_chain raising the error a
#: defect in the library raises.
_PLANTED_DEFECT = """
from posetglue import cli
from posetglue.errors import InternalInconsistency

def broken(**_):
    raise InternalInconsistency("planted defect")

cli.verify_two_chain = broken
raise SystemExit(cli.main(["verify", "two-chain", "--trials", "2"]))
"""


class TestConsoleScript:
    def test_module_entry_point(self, files):
        result = run_python(["-m", "posetglue.cli", "poset", "check", files["chain3"]])
        assert result.returncode == 0
        assert "3 elements" in result.stdout

    def test_internal_error_exits_4_without_a_traceback(self, files, capsys, monkeypatch):
        # a defect inside the library is neither invalid input (exit 1) nor
        # a raw traceback
        def broken(**_):
            raise InternalInconsistency("planted defect")

        monkeypatch.setattr(cli, "verify_two_chain", broken)
        assert main(["verify", "two-chain", "--trials", "2"]) == 4
        assert capsys.readouterr().err == "internal error: planted defect\n"
        result = run_python(["-c", _PLANTED_DEFECT])
        assert result.returncode == 4
        assert result.stderr == "internal error: planted defect\n"
        assert "Traceback" not in result.stderr

    def test_theorem_json_does_not_depend_on_the_hash_seed(self, tmp_path):
        # set and frozenset iteration order changes with PYTHONHASHSEED; a
        # report must stay byte-identical from run to run all the same
        gluing = tmp_path / "x1x2.json"
        g = figure_one_gluing(FIGURE_ONE_PAIRS[0])[0]
        gluing.write_text(json.dumps(gluing_to_json(g)))
        argv = ["-m", "posetglue.cli", "verify", "theorem", "--gluing", str(gluing)]
        outs = []
        for hash_seed in (0, 1):
            result = run_python([*argv, "--trials", "3", "--json"], hash_seed)
            assert result.returncode == 0, result.stderr
            outs.append(result.stdout)
        assert json.loads(outs[0])["ok"]
        assert outs[0] == outs[1]


def test_round_trip_through_op(tmp_path, capsys):
    p = poset_from_generators(["m", "n"], [("m", "n")])
    f = tmp_path / "p.json"
    f.write_text(json.dumps(poset_to_json(p)))
    assert main(["poset", "op", "opposite", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ["n", "m"] in doc["relations"]
