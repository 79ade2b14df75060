import contextlib
import gc
import io
import itertools
import json
import math
from pathlib import Path
import re
import shutil
import tempfile
import warnings
import weakref

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule
import numpy as np
import pytest

from polyjac import PolySystem, burgers_discretize, burgers_step_bound, cli, expressions, load_system_json, lower_to_poly
from polyjac.cli import build_parser, main
from polyjac.presets import CIRCLE_CUBIC_ROOT_POS, circle_cubic_system

from conftest import count_calls, dense_coefficients


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "n": 2,
        "L": [[0.0, 0.0], [0.0, -1.0]],
        "quadratic": [[0, 0, 0, 1.0], [0, 1, 1, 1.0]],
        "cubic": [[1, 0, 0, 0, 0.75]],
        "F": [-1.0, 0.9],
    }))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_doc(tmp_path, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Operands of unequal length: a length-1 operand is not broadcast to length n.
ROW = {"op": "linear", "matrix": [[1, 1, 1]]}
BROADCAST = {
    "sum-length-1-child": {"n": 3, "rhs": {"op": "sum", "children": [{"op": "state"}, ROW]}},
    "product-length-1-child": {"n": 3, "rhs": {"op": "hproduct", "children": [{"op": "state"}, ROW]}},
    "diagscale-length-1": {"n": 3, "rhs": {"op": "diagscale", "scale": [2.0], "child": {"op": "state"}}},
    "diagscale-length-1-of-linear": {
        "n": 3,
        "rhs": {"op": "diagscale", "scale": [2.0], "child": {"op": "linear", "matrix": np.eye(3).tolist()}},
    },
}


class TestExitCodes:
    def test_solve_converged_is_zero(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["--out", str(out), "solve", "circle-cubic", "--x0", "0.5,1.0"]) == 0

    def test_missing_file_is_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "cannot read input" in capsys.readouterr().err

    def test_bad_subcommand_is_one(self, capsys):
        assert main(["frobnicate", "circle-cubic"]) == 1

    def test_bad_state_length_is_one(self, capsys):
        assert main(["solve", "circle-cubic", "--x0", "1.0"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [(["solve", "circle-cubic", "--tol", "0"], "tol must be positive and finite, got 0.0"),
         (["solve", "circle-cubic", "--tol", "nan"], "tol must be positive and finite, got nan"),
         (["solve", "circle-cubic", "--tol", "inf"], "tol must be positive and finite, got inf"),
         (["solve", "circle-cubic", "--max-iter=-1"], "max_iter must be at least 0, got -1"),
         (["solve", "circle-cubic", "--method", "sor", "--omega", "3"],
          "omega must lie in (0, 2], got 3.0"),
         (["solve", "circle-cubic", "--x0", "nan,1"], "bad state 'nan,1': entries must be finite"),
         (["stability", "circle-cubic", "--state", "inf,1"],
          "bad state 'inf,1': entries must be finite"),
         (["check-jacobian", "circle-cubic", "--state", "nan,1"],
          "bad state 'nan,1': entries must be finite"),
         (["solve", "circle-cubic", "--x0", "a,b"], "bad state 'a,b': could not convert string to float: 'a'")],
        ids=["zero-tol", "nan-tol", "inf-tol", "negative-max-iter", "omega-3", "nan-x0", "inf-state",
             "nan-checked-state", "unparsed-x0"],
    )
    def test_option_outside_domain_is_one(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_unwritable_output_is_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "trace.json"
        assert main(["--out", str(out), "solve", "circle-cubic", "--x0", "0.5,1.0"]) == 1
        message = f"error: cannot write output: [Errno 2] No such file or directory: '{out}'\n"
        assert capsys.readouterr() == ("", message)

    def test_numerical_failure_is_two(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(
            ["--out", str(out), "solve", "circle-cubic", "--max-iter", "1", "--tol", "1e-14",
             "--x0", "0.5,1.0", "--method", "jacobi"]
        )
        assert code == 2
        assert read_json(str(out))["status"] != "converged"

    def test_singular_jacobian_is_two(self, tmp_path):
        # f(U) = U^2 - 1 has a singular Jacobian at U0 = 0
        path, out = tmp_path / "system.json", tmp_path / "t.json"
        path.write_text(json.dumps({"n": 1, "L": [[0.0]], "quadratic": [[0, 0, 0, 1.0]], "F": [-1.0]}))
        assert main(["--out", str(out), "solve", str(path), "--x0", "0", "--method", "newton"]) == 2
        assert read_json(str(out))["status"] == "singular_jacobian"

    @pytest.mark.parametrize(
        "method", ["newton", "classic-rank1", "modified-rank1", "jacobi", "gauss-seidel", "sor"]
    )
    def test_overflow_prints_no_warning(self, tmp_path, capsys, method):
        # the first residual is finite; the first step overflows to inf and NaN
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"n": 1, "L": [[1.0]], "F": [-1e132], "cubic": [[0, 0, 0, 0, -0.25]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(tmp_path / "t.json"), "solve", str(path), "--method", method])
        assert code == 2
        assert capsys.readouterr().err == ""
        assert caught == []

    @pytest.mark.parametrize(
        "command, err, field, tail",
        [(["solve"], "", "residual_norms", [math.inf, math.nan]),
         (["integrate", "--h", "1", "--steps", "3"], "integration diverged at step 0\n", "states",
          [[1e200, 1e200], [math.inf, math.inf]])],
        ids=["solve", "integrate"],
    )
    def test_diverged_json_trace_carries_non_finite_tokens(self, tmp_path, capsys, command, err, field, tail):
        # a trace, unlike a report, writes a non-finite value as NaN or Infinity, which json.loads reads
        doc = {"n": 2, "L": [[1, 0], [0, 1]], "quadratic": [[0, 0, 0, 50], [1, 1, 1, 50]], "F": [10, 10]}
        out = tmp_path / "t.json"
        argv = ["--out", str(out), command[0], write_doc(tmp_path, doc), *command[1:], "--x0", "1e200,1e200"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)
        text = out.read_text()
        assert ("NaN" in text) == (command[0] == "solve") and "Infinity" in text
        trace = json.loads(text)
        assert trace["status"] == "diverged"
        np.testing.assert_equal(trace[field][-len(tail):], tail)

    def test_out_of_memory_is_one(self, monkeypatch, capsys):
        def exhausted(self, *args):
            raise MemoryError

        monkeypatch.setattr(PolySystem, "__post_init__", exhausted)
        assert main(["stability", "circle-cubic"]) == 1
        assert capsys.readouterr().err == "error: input too large for memory\n"

    @pytest.mark.parametrize("argv, field", [
        ("stability circle-cubic --state 1e200,1e200", "euler_bound_l1"),
        ("check-jacobian circle-cubic --state 1e200,1e200", "max_fd_rel_error"),
        ("stability burgers --n 8 --state 1e160,1,1,1,1,1,1,1", "pseudo_jacobian_bound_relaxed"),
    ])
    def test_nan_in_a_report_is_two(self, capsys, argv, field):
        # JSON has no NaN: an overflowing report prints nothing and names its first NaN field
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"numerical error: report field {field} is NaN\n")

    def test_integrate_divergence_is_two(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["--format", "csv", "--out", str(out), "integrate", "burgers", "--n", "32",
             "--re", "100", "--h", "2.0", "--steps", "50"]
        )
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_malformed_json_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1

    def test_undecodable_input_is_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "L": [[1.0]], "F": [1.0], "name": "\xff"}')
        with pytest.raises(UnicodeDecodeError) as reason:  # as open() in text mode reads it
            path.read_text()
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot read input: {path}: {reason.value}\n")

    @pytest.mark.parametrize(
        "args", [["--n", "0"], ["--n", "2"], ["--re", "0"], ["--re", "-5"], ["--re", "nan"], ["--re", "1e-320"]]
    )
    def test_bad_preset_argument_is_one(self, capsys, args):
        # explicit values are used as given, never replaced by the defaults
        assert main(["integrate", "burgers", "--h", "0.001", "--steps", "1"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad preset argument: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "re_, reason",
        [("inf", "Reynolds number must be positive and finite, got inf"),
         ("-1", "Reynolds number must be positive and finite, got -1.0"),
         ("nan", "Reynolds number must be positive and finite, got nan"),
         ("1e-320", "linear map matrix contains non-finite entries")],
        ids=["inf", "-1", "nan", "1e-320"],
    )
    def test_reynolds_number_outside_its_range_is_one_line(self, capsys, re_, reason):
        # one check of 0 < Re < inf where the record is built; 1e-320 passes it and B/Re overflows
        assert main(["stability", "burgers", "--re", re_]) == 1
        assert capsys.readouterr() == ("", f"error: bad preset argument: {reason}\n")


# kind -> message of a quadratic n = 2 tree, L U - c o (U o U), spoiled by one non-finite entry
NON_FINITE_TREES = {
    "nan-matrix": "linear map matrix contains non-finite entries",
    "-inf-matrix": "linear map matrix contains non-finite entries",
    "nan-weight": "sum weights must be finite, got [1.0, nan]",
    "nan-scale": "diagonal scale contains non-finite entries",
}


def non_finite_tree(kind):
    """The tree document of a NON_FINITE_TREES kind, whose JSON text carries NaN or -Infinity."""
    L, weights, scale = [[-2.0, 1.0], [1.0, -2.0]], [1.0, -1.0], [1.0, 1.0]
    if kind == "nan-matrix":
        L[0][1] = math.nan
    elif kind == "-inf-matrix":
        L[0][0] = -math.inf
    elif kind == "nan-weight":
        weights[1] = math.nan
    else:
        scale[0] = math.nan
    square = {"op": "hproduct", "children": [{"op": "state"}, {"op": "state"}]}
    return {"n": 2, "rhs": {"op": "sum", "weights": weights, "children": [
        {"op": "linear", "matrix": L}, {"op": "diagscale", "scale": scale, "child": square}]}}


class TestNonFiniteInput:
    @pytest.mark.parametrize("kind", list(NON_FINITE_TREES))
    @pytest.mark.parametrize(
        "command",
        [["integrate", "--h", "0.01", "--steps", "2"], ["integrate", "--h", "0.01", "--steps", "2", "--report"],
         ["integrate", "--scan", "--h-lo", "0.01", "--h-hi", "0.5"], ["stability"], ["solve"], ["check-jacobian"]],
        ids=["integrate", "integrate-report", "integrate-scan", "stability", "solve", "check-jacobian"],
    )
    def test_non_finite_tree_entry_is_a_bad_input(self, tmp_path, capsys, kind, command):
        # refused where the tree is built, before any command blames the lowering or a step diverges
        path = write_doc(tmp_path, non_finite_tree(kind))
        assert main([command[0], path, *command[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: bad expression input: {NON_FINITE_TREES[kind]}\n")


class TestUsageErrors:
    @pytest.mark.parametrize("method", ["implicit-euler", "semi-implicit-euler"])
    @pytest.mark.parametrize(
        "steps",
        [["--h", "0.1", "--steps", "2"], ["--scan", "--h-lo", "0.01", "--h-hi", "1"]],
        ids=["march", "scan"],
    )
    def test_implicit_method_on_a_non_polynomial_tree_is_one(self, tmp_path, capsys, method, steps):
        doc = {"n": 3, "rhs": {"op": "hfunction", "name": "sin", "child": {"op": "state"}}}
        assert main(["integrate", write_doc(tmp_path, doc), "--method", method, *steps]) == 1
        # integrate's own message, as the library gives it
        assert capsys.readouterr().err == (
            "error: implicit stepping needs a polynomial system; the tree does not lower: "
            "non-polynomial node: elementwise sin\n"
        )

    def test_an_unsupported_function_is_one(self, tmp_path, capsys):
        doc = {"n": 3, "rhs": {"op": "hfunction", "name": "tan", "child": {"op": "state"}}}
        assert main(["integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2"]) == 1
        assert capsys.readouterr() == (
            "", "error: bad expression input: unsupported function 'tan'; use sin, cos or exp\n")

    @pytest.mark.parametrize("steps", ["2", "0"])
    def test_report_on_a_tree_that_does_not_lower_is_one(self, tmp_path, capsys, steps):
        # the tree L U - sin(U): no run, rather than h_bound and negdef columns left empty
        L = [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]
        rhs = {"op": "sum", "children": [{"op": "linear", "matrix": L},
                                         {"op": "hfunction", "name": "sin", "child": {"op": "state"}}],
               "weights": [1.0, -1.0]}
        doc = write_doc(tmp_path, {"n": 3, "rhs": rhs})
        assert main(["--format", "csv", "integrate", doc, "--h", "0.1", "--steps", steps, "--report"]) == 1
        assert capsys.readouterr() == ("", "error: a stability report needs a polynomial system; the tree does not "
                                           "lower: non-polynomial node: elementwise sin\n")

    def test_report_on_a_tree_over_the_dense_limit_names_the_tensor(self, tmp_path, capsys, no_dense_over_limit):
        doc = {"n": 200, "rhs": {"op": "hproduct", "children": [{"op": "state"}] * 3}}
        assert main(["integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2", "--report"]) == 1
        assert capsys.readouterr() == ("", "error: a stability report needs a polynomial system; the tree does not "
                                           "lower: lowered coefficient tensor of shape (200, 200, 200, 200) needs "
                                           "12800000000 bytes, over the 1073741824-byte limit\n")

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_is_one(self, capsys, seed):
        assert main(["--seed", seed, "check-jacobian", "circle-cubic"]) == 1
        assert capsys.readouterr().err == f"error: argument --seed: must be a non-negative integer, got '{seed}'\n"

    def test_cubic_over_the_dense_limit_is_one(self, tmp_path, capsys, no_dense_over_limit):
        n = 200
        doc = {"n": n, "L": np.zeros((n, n)).tolist(), "F": [0.0] * n, "cubic": [[0, 0, 0, 0, 1.0]]}
        assert main(["check-jacobian", write_doc(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad system input: field 'cubic' of shape (200, 200, 200, 200)")
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "name, command",
        [("solve", ["solve"]), ("check-jacobian", ["check-jacobian"]), ("stability", ["stability"]),
         ("implicit stepping", ["integrate", "--method", "implicit-euler", "--h", "0.1", "--steps", "2"])],
        ids=["solve", "check-jacobian", "stability", "implicit-euler"],
    )
    def test_tree_over_the_dense_limit_names_the_tensor(self, tmp_path, capsys, no_dense_over_limit, name, command):
        # a polynomial tree whose cubic would take 200^4 floats is refused for its size, not its form
        doc = {"n": 200, "rhs": {"op": "hproduct", "children": [{"op": "state"}] * 3}}
        assert main([command[0], write_doc(tmp_path, doc), *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"error: {name} needs a polynomial system; the tree does not lower: lowered coefficient "
            "tensor of shape (200, 200, 200, 200) needs 12800000000 bytes, over the 1073741824-byte limit\n"
        )

    def test_explicit_integrate_of_a_tree_over_the_dense_limit_completes(self, tmp_path, no_dense_over_limit):
        doc = {"n": 200, "rhs": {"op": "hproduct", "children": [{"op": "state"}] * 3}}
        out = tmp_path / "t.json"
        assert main(["--out", str(out), "integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2"]) == 0
        assert read_json(str(out))["status"] == "completed"

    @pytest.mark.parametrize(
        "argv",
        [["solve", "circle-cubic", "--bogus"], ["solve", "circle-cubic", "--tol", "x"], ["frobnicate"], []],
        ids=["unknown-option", "bad-float", "bad-subcommand", "no-subcommand"],
    )
    def test_argument_error_writes_one_line(self, capsys, argv):
        # no usage banner: argparse's errors are one line, as every other error is
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, choices",
        [("solve", ["newton", "classic-rank1", "modified-rank1", "jacobi", "gauss-seidel", "sor"]),
         ("integrate", ["explicit-euler", "rk4", "implicit-euler", "semi-implicit-euler"])],
        ids=["solve", "integrate"],
    )
    def test_invalid_method_lists_the_choices(self, capsys, command, choices):
        assert main([command, "circle-cubic", "--method", "bogus"]) == 1
        # older argparse releases quote each choice, newer ones do not
        listed = ", ".join(f"'?{re.escape(c)}'?" for c in choices)
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: argument --method: invalid choice: 'bogus' \(choose from {listed}\)\n", err
        ), err

    def test_help_is_zero(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: polyjac solve")


class TestParserReuse:
    def test_usage_error_leaves_parser_intact(self, capsys):
        argv = ["--seed", "3", "check-jacobian", "circle-cubic", "--random-states", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # the failing command sets global options before its subcommand rejects it
        bad = ["--seed", "9", "--format", "csv", "solve", "circle-cubic", "--method", "bogus"]
        assert main(bad) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert build_parser() is build_parser()


def one_unknown(F):
    """The document of U + F = 0, whose root is -F."""
    return json.dumps({"n": 1, "L": [[1.0]], "F": [F]})


def count_parses(monkeypatch):
    """Patch cli.load_system_json to log each call; returns the log."""
    calls = []
    monkeypatch.setattr(cli, "load_system_json", lambda data: calls.append(data) or load_system_json(data))
    return calls


class TestParseCache:
    def test_rewritten_document_is_parsed_again(self, tmp_path):
        # a key of path, size or mtime would return the old system: the text alone is the key
        path, out = tmp_path / "in.json", tmp_path / "trace.json"
        roots = []
        for F in (-2.0, -3.0):
            path.write_text(one_unknown(F))
            assert main(["--out", str(out), "solve", str(path)]) == 0
            roots.append(read_json(out)["iterates"][-1])
        assert len(one_unknown(-2.0)) == len(one_unknown(-3.0))
        assert roots == [[2.0], [3.0]]

    def test_same_text_at_two_paths_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        parses = count_parses(monkeypatch)
        for name in ("a.json", "b.json", "a.json"):
            (tmp_path / name).write_text(one_unknown(-1.5))
            assert main(["solve", str(tmp_path / name)]) == 0
        assert len(parses) == 1

    def test_a_failed_parse_is_not_kept(self, tmp_path, monkeypatch, capsys):
        for name in ("bad.json", "bad.json", "other.json"):
            (tmp_path / name).write_text("{not json")
            assert main(["solve", str(tmp_path / name)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed JSON in {tmp_path / name}: ") and err.count("\n") == 1
        parses = count_parses(monkeypatch)
        (tmp_path / "bad.json").write_text('{"n": 1, "L": [[1.0]], "F": []}')
        for _ in range(2):
            assert main(["solve", str(tmp_path / "bad.json")]) == 1
            assert capsys.readouterr().err == "error: bad system input: field 'F': expected length 1, got (0,)\n"
        (tmp_path / "good.json").write_text(one_unknown(-1.0))
        assert main(["solve", str(tmp_path / "good.json")]) == 0
        assert len(parses) == 3

    def test_the_last_source_is_dropped_before_the_next_parse(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(one_unknown(-1.0))
        b.write_text(one_unknown(-2.0))
        held = weakref.ref(cli._load_input(str(a)))
        alive_while_parsing_b = []

        def load(data):
            gc.collect()
            alive_while_parsing_b.append(held() is not None)
            return load_system_json(data)

        monkeypatch.setattr(cli, "load_system_json", load)
        assert cli._load_input(str(b)).const.tolist() == [-2.0]
        gc.collect()
        assert alive_while_parsing_b == [False] and held() is None

    def test_warm_and_cold_sessions_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        # one cli-batch job's document commands, then the L U - sin(U) tree's integrate runs
        rng = np.random.default_rng(8)
        n = 8
        system = {
            "n": n,
            "L": (4.0 * np.eye(n) + rng.standard_normal((n, n)) / n**0.5).tolist(),
            "quadratic": [[*ijk, 0.5 * rng.standard_normal() / n] for ijk in itertools.product(range(n), repeat=3)],
            "cubic": [[*ijkl, 0.5 * rng.standard_normal() / n**1.5]
                      for ijkl in itertools.product(range(n), repeat=4)],
            "F": rng.standard_normal(n).tolist(),
        }
        tree = {"n": 3, "rhs": {"op": "sum", "weights": [1.0, -1.0], "children": [
            {"op": "linear", "matrix": [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]},
            {"op": "hfunction", "name": "sin", "child": {"op": "state"}}]}}
        docs, out = tmp_path / "docs", tmp_path / "out"
        docs.mkdir()
        out.mkdir()
        (docs / "system.json").write_text(json.dumps(system))
        (docs / "tree.json").write_text(json.dumps(tree))
        path, tree_path = str(docs / "system.json"), str(docs / "tree.json")
        integrate = ["--format", "csv", "--out", f"{out}/tree.csv", "integrate", tree_path,
                     "--h", "0.1", "--steps", "2"]
        session = [
            ["--out", f"{out}/newton.json", "solve", path, "--method", "newton"],
            ["--out", f"{out}/modified.json", "solve", path, "--method", "modified-rank1"],
            ["--format", "csv", "--out", f"{out}/gs.csv", "solve", path, "--method", "gauss-seidel"],
            ["--seed", "3", "--out", f"{out}/jac.json", "check-jacobian", path, "--random-states", "5"],
            integrate,
            integrate + ["--report"],
            integrate + ["--method", "implicit-euler"],
        ]
        parses = count_parses(monkeypatch)

        def run(cold):
            results = []
            for argv in session:
                if cold:
                    cli._slot.clear()
                code = main(argv)
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                for f in out.iterdir():
                    f.unlink()
                results.append((code, *capsys.readouterr(), files))
            return results

        cli._slot.clear()
        warm = run(cold=False)
        assert len(parses) == 1
        assert run(cold=True) == warm
        assert len(parses) == 1 + 4
        # the solves, check-jacobian and the explicit run exit 0 and write their files
        assert all(r[0] == 0 and r[3] for r in warm[:5])


class TestMalformedInput:
    @pytest.mark.parametrize("n", [2.5, "2"], ids=["fraction", "string"])
    @pytest.mark.parametrize("kind", ["system", "expression"])
    def test_dimension_that_is_not_an_integer_is_refused(self, tmp_path, capsys, kind, n):
        # int() would solve "n": 2.5 as n = 2, and accept "n": "2"
        doc = {"n": n, "L": [[1.0, 0.0], [0.0, 1.0]], "F": [0.0, 0.0]} if kind == "system" else {
            "n": n, "rhs": {"op": "state"}}
        assert main(["integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: bad {kind} input: field 'n' must be an integer, got {n!r}\n")

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"n": [2], "L": [[1.0]], "F": [1.0]},
            {"n": 2, "rhs": [1]},
            {"n": 2, "rhs": {"op": "sum", "children": [1]}},
            {"n": 2, "rhs": {"op": "linear", "matrix": np.eye(3).tolist()}},
            {"n": 2, "rhs": {"op": "linear", "matrix": np.ones((3, 2)).tolist()}},
            {"n": 2, "rhs": {"op": "linear", "matrix": 5}},
            {"n": 2, "rhs": {"op": "linear", "matrix": [1, 2]}},
            {"n": 2, "rhs": {"op": "sum", "children": []}},
            {"n": 2, "rhs": {"op": "hproduct", "children": []}},
            {"n": 1, "rhs": {"op": "hpower", "child": {"op": "sum", "children": []}, "exponent": 1}},
            {"n": 0, "rhs": {"op": "state"}},
            {"n": float("inf"), "rhs": {"op": "state"}},
            {"n": float("inf"), "L": [[1.0]], "F": [1.0]},
            {"n": 2, "rhs": {"op": "hpower", "child": {"op": "state"}, "exponent": float("inf")}},
            *BROADCAST.values(),
        ],
        ids=[
            "top-level-list",
            "non-integer-n",
            "rhs-list",
            "child-not-object",
            "dim-mismatch",
            "output-length-mismatch",
            "scalar-matrix",
            "vector-matrix",
            "empty-sum",
            "empty-product",
            "power-of-empty-sum",
            "zero-dimension",
            "infinite-n-tree",
            "infinite-n-system",
            "infinite-exponent",
            *BROADCAST,
        ],
    )
    def test_exits_one_with_one_line(self, tmp_path, capsys, doc):
        assert main(["integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["solve"], ["check-jacobian"], ["integrate", "--h", "0.1", "--steps", "2"]],
                             ids=["solve", "check-jacobian", "integrate"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"L": [[1, 0], [0]]}, "field 'L': setting an array element with a sequence."),
            ({"F": [0, [0]]}, "field 'F': setting an array element with a sequence."),
            ({"quadratic": [[0, 0, None, 1.0]]}, "field 'quadratic': bad entry [0, 0, None, 1.0]\n"),
            ({"cubic": [[0, 0, 1, 1, None]]}, "field 'cubic': bad entry [0, 0, 1, 1, None]\n"),
            ({"quadratic": [[0, 0, 0, 1.0], [0, 0, 0, 10**400]]}, f"field 'quadratic': bad entry {[0, 0, 0, 10**400]!r}\n"),
        ],
        ids=["ragged-L", "ragged-F", "null-index", "null-value", "value-past-float-range"],
    )
    def test_bad_system_field_is_named(self, tmp_path, capsys, command, fields, message):
        doc = {"n": 2, "L": [[-1.0, 0.0], [0.0, -1.0]], "F": [0.0, 0.0], **fields}
        assert main([command[0], write_doc(tmp_path, doc), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad system input: " + message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["stability"], ["integrate", "--scan", "--h-lo", "0.01", "--h-hi", "0.3"]],
        ids=["solve", "stability", "scan"],
    )
    @pytest.mark.parametrize("doc", BROADCAST.values(), ids=BROADCAST)
    def test_unequal_operand_lengths_exit_one(self, tmp_path, capsys, command, doc):
        # plain integrate runs these documents in test_exits_one_with_one_line
        assert main([command[0], write_doc(tmp_path, doc), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad expression input: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "integrate"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                json.dumps({"n": 1, "L": [[-1.0]], "F": [1.0]}),
                "error: bad system input: system JSON must be an object, got str\n",
            ),
            (
                {"n": 1, "rhs": json.dumps({"op": "state"})},
                "error: bad expression input: expression node must be a JSON object, got str\n",
            ),
            (
                {"n": 1, "rhs": {"op": "sum", "children": [json.dumps({"op": "state"})]}},
                "error: bad expression input: expression node must be a JSON object, got str\n",
            ),
        ],
        ids=["system-string", "rhs-string", "sum-child-string"],
    )
    def test_json_string_document_exits_one(self, tmp_path, capsys, command, doc, message):
        # a document is a JSON object; JSON text wrapped in a string is not read a second time
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--h", "0.1", "--steps", "2"] if command == "integrate" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == message


class TestSolve:
    def test_json_trace_reloadable_and_accurate(self, tmp_path, system_file):
        out = tmp_path / "trace.json"
        assert main(["--out", str(out), "solve", system_file, "--x0", "0.5,1.0"]) == 0
        d = read_json(str(out))
        assert d["status"] == "converged"
        final = np.array(d["iterates"][-1])
        assert final[0] == pytest.approx(CIRCLE_CUBIC_ROOT_POS[0], abs=1e-8)
        assert final[1] == pytest.approx(CIRCLE_CUBIC_ROOT_POS[1], abs=1e-8)

    def test_csv_trace_parseable(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(
            ["--format", "csv", "--out", str(out), "solve", "circle-cubic", "--x0", "0.5,1.0"]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,U0,U1,residual"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(CIRCLE_CUBIC_ROOT_POS[0], abs=1e-6)

    def test_sor_unit_omega_matches_gauss_seidel(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({
            "n": 2,
            "L": [[2.0, 0.3], [0.2, 2.5]],
            "quadratic": [[0, 0, 0, 0.1], [1, 1, 1, 0.1]],
            "cubic": [],
            "F": [-1.0, -1.0],
        }))
        a = tmp_path / "gs.json"
        b = tmp_path / "sor.json"
        base = ["solve", str(sys_file), "--x0", "1.0,1.0", "--tol", "1e-10"]
        assert main(["--out", str(a)] + base + ["--method", "gauss-seidel"]) == 0
        assert main(["--out", str(b)] + base + ["--method", "sor", "--omega", "1.0"]) == 0
        da, db = read_json(str(a)), read_json(str(b))
        assert da["iterates"] == db["iterates"]

    def test_all_root_finders_agree(self, tmp_path):
        finals = []
        for method in ("newton", "classic-rank1", "modified-rank1"):
            out = tmp_path / f"{method}.json"
            assert main(
                ["--out", str(out), "solve", "circle-cubic", "--method", method,
                 "--x0", "0.5,1.0"]
            ) == 0
            finals.append(np.array(read_json(str(out))["iterates"][-1]))
        for f in finals[1:]:
            assert np.abs(f - finals[0]).max() <= 1e-8


class TestCheckJacobian:
    def test_report_shape_and_tolerances(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--seed", "3", "--out", str(out), "check-jacobian", "circle-cubic"]) == 0
        d = read_json(str(out))
        assert d["states_checked"] == 20
        assert d["max_fd_rel_error"] < 1e-6
        for r in d["reports"]:
            assert r["identity_residual_quadratic"] < 1e-10
            assert r["identity_residual_cubic"] < 1e-10

    def test_one_contraction_per_checked_state(self, monkeypatch, capsys):
        # one record per state for J, the identity residuals and the deviation,
        # and one stacked contraction for its 2n central-difference points
        at = count_calls(monkeypatch, PolySystem, "at")
        products = count_calls(monkeypatch, PolySystem, "_products")
        assert main(["check-jacobian", "circle-cubic", "--random-states", "3"]) == 0
        assert len(at) == 3 and len(products) == 6

    def test_identity_residuals_of_a_one_dimensional_cubic(self, tmp_path):
        # at n = 1 the cubic residual |3 (M u) - (3 M) u|, M = c u^2, is scalar IEEE arithmetic,
        # nonzero here; the quadratic one doubles exactly, so it is 0
        c, u = 1.4134158109371489, 2.7476249074199464
        doc = {"n": 1, "L": [[-0.5]], "quadratic": [[0, 0, 0, 0.75]], "cubic": [[0, 0, 0, 0, c]], "F": [0.25]}
        out = tmp_path / "r.json"
        assert main(["--out", str(out), "check-jacobian", write_doc(tmp_path, doc), "--state", repr(u)]) == 0
        report = read_json(str(out))["reports"][0]
        M = c * (u * u)
        assert report["identity_residual_cubic"] == abs(3 * (M * u) - (3 * M) * u) == 1.4210854715202004e-14
        assert report["identity_residual_quadratic"] == 0.0

    def test_seeded_runs_bit_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["--seed", "42", "check-jacobian", "circle-cubic", "--random-states", "5"]
        assert main(["--out", str(a)] + argv) == 0
        assert main(["--out", str(b)] + argv) == 0
        assert a.read_text() == b.read_text()

    def test_explicit_state(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["--out", str(out), "check-jacobian", "circle-cubic", "--state", "1.0,1.0"]
        ) == 0
        d = read_json(str(out))
        assert d["states_checked"] == 1
        assert d["reports"][0]["state"] == [1.0, 1.0]

    def test_supplied_exact_jacobian_deviates_near_zero(self, tmp_path):
        J = circle_cubic_system().jacobian(np.array([1.0, 1.0]))
        jac_file = tmp_path / "J.json"
        jac_file.write_text(json.dumps(J.tolist()))
        out = tmp_path / "r.json"
        assert main(
            ["--out", str(out), "check-jacobian", "circle-cubic", "--state", "1.0,1.0",
             "--jacobian", str(jac_file)]
        ) == 0
        assert read_json(str(out))["max_deviation"] < 1e-12

    @pytest.mark.parametrize(
        "args",
        [["--random-states", "0"], ["--random-states=-1"], ["--fd-step", "0"], ["--fd-step=-1e-6"],
         ["--fd-step", "nan"], ["--fd-step", "inf"]],
    )
    def test_option_outside_domain_is_usage_error(self, capsys, args):
        assert main(["check-jacobian", "circle-cubic", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {args[0].split('=')[0]} must be ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("step", ["1e-300", "1e-320", str(np.nextafter(np.finfo(float).eps, 0))])
    def test_fd_step_below_machine_epsilon_is_usage_error(self, capsys, step):
        # below eps, U_j +- h_j can round back to U_j and the quotient is rounding alone
        assert main(["check-jacobian", "circle-cubic", "--state", "1,2", "--fd-step", step]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --fd-step must be ") and str(np.finfo(float).eps) in err
        assert err.count("\n") == 1
        assert main(["check-jacobian", "circle-cubic", "--state", "1,2", "--fd-step", str(np.finfo(float).eps)]) == 0

    @pytest.mark.parametrize("content", ['{"a": 1}', '[[1, "x"], [0, 1]]', "[[1, 0]"], ids=["object", "text", "malformed"])
    def test_unreadable_jacobian_is_usage_error(self, tmp_path, capsys, content):
        jac_file = tmp_path / "J.json"
        jac_file.write_text(content)
        assert main(["check-jacobian", "circle-cubic", "--jacobian", str(jac_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read jacobian matrix: ") and err.count("\n") == 1

    def test_wrong_shape_jacobian_is_usage_error(self, tmp_path, capsys):
        jac_file = tmp_path / "J.json"
        jac_file.write_text("[[1.0]]")
        assert main(["check-jacobian", "circle-cubic", "--jacobian", str(jac_file)]) == 1


class TestStability:
    def test_burgers_report_fields(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["--out", str(out), "stability", "burgers", "--n", "32", "--re", "100"]) == 0
        d = read_json(str(out))
        assert d["dimension"] == 32
        assert 0.0 < d["burgers_a_priori_bound"] <= d["euler_bound_linf"] * (1 + 1e-12)
        assert d["rk4_bound_linf"] == pytest.approx(1.3925 * d["euler_bound_linf"])

    def test_negdef_certificate_on_decay_system(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({
            "n": 2,
            "L": [[-2.0, 0.0], [0.0, -3.0]],
            "quadratic": [],
            "cubic": [],
            "F": [0.0, 0.0],
        }))
        out = tmp_path / "s.json"
        assert main(["--out", str(out), "stability", str(sys_file), "--state", "1.0,1.0"]) == 0
        d = read_json(str(out))
        assert d["negdef_certificate"] is True
        assert d["euler_bound_linf"] == pytest.approx(2.0 / 3.0)
        assert d["pseudo_jacobian_bound_relaxed"] <= d["pseudo_jacobian_bound_tight"] * (1 + 1e-12)

    def test_only_the_burgers_record_reports_an_a_priori_bound(self, tmp_path, capsys):
        # the same tree as a document is a plain SemiDiscreteIVP: its reports match the preset's but for the bound
        sd = burgers_discretize(8, 50.0)
        A, B = sd.first_diff, sd.second_diff
        doc = write_doc(tmp_path, {"n": 8, "rhs": {"op": "sum", "weights": [1.0, -1.0], "children": [
            {"op": "linear", "matrix": (B / 50.0).tolist()},
            {"op": "hproduct", "children": [{"op": "state"}, {"op": "linear", "matrix": A.tolist()}]}]}})
        U = ",".join(map(repr, (0.5 + np.sin(2 * np.pi * np.arange(8) / 8)).tolist()))
        scan = ["integrate", "--x0", U, "--scan", "--h-lo", "0.01", "--h-hi", "0.6", "--horizon", "10"]
        for argv, key in ((["stability", "--state", U], "burgers_a_priori_bound"), (scan, "a_priori_bound")):
            reports = []
            for source in (["burgers", "--n", "8", "--re", "50"], [doc]):
                assert main(argv[:1] + source + argv[1:]) == 0
                reports.append(json.loads(capsys.readouterr().out))
            preset, tree = reports
            assert preset.pop(key) == burgers_step_bound(sd, np.array(U.split(","), dtype=float)) and preset == tree

    def test_zero_matrix_has_no_step_restriction(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({"n": 1, "L": [[0.0]], "F": [1.0]}))
        out = tmp_path / "s.json"
        assert main(["--out", str(out), "stability", str(sys_file)]) == 0
        d = read_json(str(out))
        bounds = [key for key in d if "_bound" in key]
        assert len(bounds) == 6
        assert all(d[key] == float("inf") for key in bounds)


class TestIntegrate:
    def test_csv_trajectory_shape(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(
            ["--format", "csv", "--out", str(out), "integrate", "burgers", "--n", "16",
             "--re", "50", "--h", "0.001", "--steps", "10", "--report"]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t," + ",".join(f"U{i}" for i in range(16)) + ",h_bound,negdef"
        assert len(lines) == 12  # header + initial state + 10 steps

    def test_json_trajectory_reloadable(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main(
            ["--out", str(out), "integrate", "circle-cubic", "--method", "implicit-euler",
             "--h", "0.01", "--steps", "5", "--x0", "0.1,0.1"]
        ) == 0
        d = read_json(str(out))
        assert d["status"] == "completed"
        assert len(d["states"]) == 6

    def test_scan_reports_threshold_above_bound(self, tmp_path):
        out = tmp_path / "scan.json"
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({
            "n": 1, "L": [[-1.0]], "quadratic": [], "cubic": [], "F": [0.0],
        }))
        assert main(
            ["--out", str(out), "integrate", str(sys_file), "--scan", "--h-lo", "1.0",
             "--h-hi", "4.0", "--horizon", "1500", "--x0", "1.0"]
        ) == 0
        d = read_json(str(out))
        assert d["blowup_threshold"] == pytest.approx(2.0, rel=0.02)

    def test_implicit_scan_finds_no_blowup_on_burgers(self, capsys):
        # implicit Euler completes the horizon at h_hi = 2, so there is no blow-up to bracket
        argv = ["integrate", "burgers", "--n", "24", "--re", "100", "--method", "implicit-euler",
                "--scan", "--h-lo", "0.01", "--h-hi", "2", "--horizon", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bracket invalid: stable at h_hi=2.0\n" and captured.out == ""

    @pytest.mark.parametrize("horizon", ["inf", "nan", "0", "-1"])
    def test_scan_horizon_outside_domain_is_usage_error(self, capsys, horizon):
        argv = ["integrate", "burgers", "--n", "8", "--scan", "--h-lo", "0.01", "--h-hi", "0.3"]
        assert main(argv + [f"--horizon={horizon}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon must be positive and finite, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "bracket",
        [["--h-lo", "0.01", "--h-hi", "inf"], ["--h-lo", "0", "--h-hi", "0.3"], ["--h-lo", "nan", "--h-hi", "0.3"]],
        ids=["inf-hi", "zero-lo", "nan-lo"],
    )
    def test_scan_bracket_outside_domain_is_usage_error(self, capsys, bracket):
        # an infinite h_hi bisects forever: every midpoint is inf
        assert main(["integrate", "burgers", "--n", "8", "--scan", *bracket]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need 0 < h_lo < h_hi < inf, got ")
        assert err.count("\n") == 1

    def test_domain_error_is_judged_at_the_start_state(self, tmp_path, capsys):
        # sqrt of (-U0, U1): defined from U0 = (-1, 1), not from the default start (1, 1)
        doc = {"n": 2, "rhs": {"op": "hpower", "exponent": 0.5,
                               "child": {"op": "linear", "matrix": [[-1, 0], [0, 1]]}}}
        out = tmp_path / "t.json"
        argv = ["--out", str(out), "integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2"]
        assert main(argv + ["--x0=-1,1"]) == 0
        assert read_json(str(out))["status"] == "completed"
        assert capsys.readouterr().err == ""
        assert main(argv) == 2
        assert capsys.readouterr().err == "numerical error: fractional power 0.5 of negative entry\n"

    @pytest.mark.parametrize(
        "option, message",
        [(["--h", "nan"], "step h must be positive and finite, got nan"),
         (["--h", "inf"], "step h must be positive and finite, got inf"),
         (["--h", "0"], "step h must be positive and finite, got 0.0"),
         (["--h", "0.001", "--steps", "-1"], "steps must be at least 0, got -1")],
        ids=["nan-h", "inf-h", "zero-h", "negative-steps"],
    )
    def test_step_outside_domain_is_usage_error(self, capsys, option, message):
        assert main(["integrate", "burgers", "--n", "8", *option]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_scan_step_count_overflowing_is_usage_error(self, capsys):
        argv = ["integrate", "burgers", "--n", "8", "--scan", "--h-lo", "1e-320", "--h-hi", "1", "--horizon", "1e10"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: horizon / h_lo must be finite, got 10000000000.0 / 1e-320\n"

    @pytest.mark.parametrize(
        "option, shape, nbytes",
        [(["--h", "1e-9", "--steps", "1000000000000"], "1000000000001, 8", "64000000000064"),
         (["--scan", "--h-lo", "0.01", "--h-hi", "0.5", "--horizon", "1e300"], "1e+302, 8", "6.4e+303"),
         (["--scan", "--h-lo", "1", "--h-hi", "2", "--horizon", "1.7e308"], "1.7e+308, 8", "1.09e+310")],
        ids=["steps", "scan", "scan-bytes-past-float-range"],
    )
    def test_trajectory_over_the_dense_limit_is_usage_error(self, capsys, option, shape, nbytes):
        # refused before the first step; otherwise the run would not end.  Counts
        # of 10^15 or more are rounded, so the line stays short
        assert main(["integrate", "burgers", "--n", "8", *option]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: trajectory of shape ({shape}) needs {nbytes} bytes, over the 1073741824-byte limit\n"
        )
        assert len(captured.err) < 200
        assert captured.out == ""

    def test_domain_error_in_a_scan_is_numerical(self, tmp_path, capsys):
        # sqrt(U) - 10 U: a step of 0.5 from (1, 1) reaches negative entries, march and scan alike
        doc = {"n": 2, "rhs": {"op": "sum", "children": [
            {"op": "hpower", "exponent": 0.5, "child": {"op": "state"}},
            {"op": "linear", "matrix": [[-10, 0], [0, -10]]}]}}
        argv = ["integrate", write_doc(tmp_path, doc), "--x0", "1,1"]
        for steps in (["--h", "0.5", "--steps", "5"], ["--scan", "--h-lo", "0.001", "--h-hi", "0.5"]):
            assert main(argv + steps) == 2
            captured = capsys.readouterr()
            assert captured.err == "numerical error: fractional power 0.5 of negative entry\n"
            assert captured.out == ""

    def test_scan_without_bracket_is_usage_error(self, capsys):
        assert main(["integrate", "circle-cubic", "--scan"]) == 1

    def test_missing_h_is_usage_error(self, capsys):
        assert main(["integrate", "circle-cubic"]) == 1


class TestEachInputLoweredOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "burgers", "--n", "8", "--h", "0.001", "--steps", "3"],
            ["integrate", "burgers", "--n", "8", "--scan", "--h-lo", "0.01", "--h-hi", "0.5",
             "--horizon", "10"],
            ["stability", "burgers", "--n", "8"],
        ],
        ids=["integrate", "scan", "stability"],
    )
    def test_builds_one_poly_system(self, monkeypatch, capsys, argv):
        # at most once: explicit integrate without --report never reads the lowered system
        built = count_calls(monkeypatch, PolySystem, "__post_init__")
        assert main(argv) == 0
        assert len(built) <= 1

    def test_explicit_integrate_never_lowers(self, tmp_path, monkeypatch, capsys):
        # the n = 200 cubic tree: explicit steps evaluate the tree and never read the lowered system
        doc = {"n": 200, "rhs": {"op": "hproduct", "children": [{"op": "state"}] * 3}}
        built = count_calls(monkeypatch, PolySystem, "__post_init__")
        lowered = []
        monkeypatch.setattr(expressions, "lower_to_poly", lambda *a: lowered.append(a) or lower_to_poly(*a))
        assert main(["integrate", write_doc(tmp_path, doc), "--h", "0.1", "--steps", "2"]) == 0
        assert built == [] and lowered == []


def count_builds(monkeypatch):
    """Clear the CLI's input slot and log each burgers_discretize and lower_to_poly call; returns the two logs."""
    cli._slot.clear()
    built, lowered = [], []
    discretize = cli.burgers_discretize
    monkeypatch.setattr(cli, "burgers_discretize", lambda *a: built.append(a) or discretize(*a))
    monkeypatch.setattr(expressions, "lower_to_poly", lambda *a: lowered.append(a) or lower_to_poly(*a))
    return built, lowered


def preset_session(out, n="16", re="75.5"):
    """A cli-batch job's three Burgers commands, each writing into the directory out."""
    burgers = ["burgers", "--n", n, "--re", re]
    return [
        ["--out", f"{out}/stability.json", "stability", *burgers],
        ["--format", "csv", "--out", f"{out}/euler.csv", "integrate", *burgers,
         "--method", "explicit-euler", "--h", "0.01", "--steps", "100", "--report"],
        ["--out", f"{out}/scan.json", "integrate", *burgers, "--scan",
         "--h-lo", "0.02", "--h-hi", "0.3", "--horizon", "2"],
    ]


class TestPresetCache:
    def test_burgers_commands_share_one_build_and_one_lowering(self, tmp_path, monkeypatch):
        built, lowered = count_builds(monkeypatch)
        for argv in preset_session(tmp_path):
            assert main(argv) == 0
        assert built == [(16, 75.5)] and len(lowered) == 1

    def test_another_n_or_re_builds_again(self, monkeypatch, capsys):
        built, _ = count_builds(monkeypatch)
        for n, re in (("16", "50"), ("16", "50"), ("16", "60"), ("8", "60"), ("8", "60"), ("16", "50")):
            assert main(["stability", "burgers", "--n", n, "--re", re]) == 0
        assert built == [(16, 50.0), (16, 60.0), (8, 60.0), (16, 50.0)]

    def test_a_refused_preset_is_not_kept(self, monkeypatch, capsys):
        built, _ = count_builds(monkeypatch)
        for _ in range(2):
            assert main(["stability", "burgers", "--n", "16", "--re", "-1"]) == 1
            assert capsys.readouterr().err == (
                "error: bad preset argument: Reynolds number must be positive and finite, got -1.0\n")
        assert len(built) == 2 and cli._slot == []

    def test_warm_and_cold_sessions_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        built, _ = count_builds(monkeypatch)

        def run(cold):
            results = []
            for argv in preset_session(tmp_path):
                if cold:
                    cli._slot.clear()
                code = main(argv)
                files = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
                for f in tmp_path.iterdir():
                    f.unlink()
                results.append((code, *capsys.readouterr(), files))
            return results

        warm = run(cold=False)
        assert len(built) == 1
        assert run(cold=True) == warm
        assert len(built) == 1 + 3
        assert all(r[0] == 0 and len(r[3]) == 1 for r in warm)


class TestOneSlot:
    # documents and presets share the one slot: the last input built, of either kind, is the one kept

    def test_a_document_after_a_preset_is_parsed_again_and_a_preset_after_a_document_is_built_again(
        self, tmp_path, monkeypatch, capsys
    ):
        built, _ = count_builds(monkeypatch)
        parses = count_parses(monkeypatch)
        doc = tmp_path / "in.json"
        doc.write_text(one_unknown(-1.0))
        for argv in (["solve", str(doc)], ["stability", "burgers", "--n", "8"]) * 2:
            assert main(argv) == 0
        assert len(parses) == 2 and built == [(8, 100.0)] * 2
        assert cli._slot[0][0] == ("burgers", 8, 100.0)

    def test_the_last_source_is_dropped_before_a_build_of_the_other_kind(self, tmp_path, monkeypatch):
        doc = tmp_path / "in.json"
        doc.write_text(one_unknown(-1.0))
        held, alive = [weakref.ref(cli._load_input(str(doc)))], []

        def logged(build):
            """build, after noting whether the last source kept is still alive."""
            def call(*args):
                gc.collect()
                alive.append(held[-1]() is not None)
                return build(*args)
            return call

        monkeypatch.setattr(cli, "burgers_discretize", logged(burgers_discretize))
        monkeypatch.setattr(cli, "load_system_json", logged(load_system_json))
        held.append(weakref.ref(cli._load_input("burgers", 8, 50.0)))
        assert cli._load_input(str(doc)).const.tolist() == [-1.0]
        gc.collect()
        assert alive == [False, False] and held[0]() is None and held[1]() is None

    def test_a_refused_input_leaves_the_slot_empty(self, tmp_path, capsys):
        doc, bad = tmp_path / "in.json", tmp_path / "bad.json"
        doc.write_text(one_unknown(-1.0))
        bad.write_text("{not json")
        for refused in (["stability", "burgers", "--re", "-1"], ["solve", str(bad)]):
            assert main(["solve", str(doc)]) == 0 and len(cli._slot) == 1
            assert main(refused) == 1 and cli._slot == []


class TestPresetFlags:
    # --n and --re shape the burgers preset alone; on another input they are refused before the slot is touched

    @pytest.mark.parametrize("command", ["solve", "check-jacobian", "stability", "integrate"])
    @pytest.mark.parametrize("input_, flag", [("circle-cubic", "--n"), ("document", "--re")])
    def test_a_flag_another_input_ignores_is_refused(self, tmp_path, capsys, command, input_, flag):
        doc = tmp_path / "in.json"
        doc.write_text(one_unknown(-1.0))
        path = str(doc) if input_ == "document" else input_
        cli._slot.clear()
        kept = cli._load_input(str(doc))
        assert main([command, path, flag, "5" if flag == "--n" else "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} shapes only the burgers preset, not {path}\n")
        assert cli._slot == [(one_unknown(-1.0), kept)]


class SlotMachine(RuleBasedStateMachine):
    """Interleaved commands over a few documents and presets: each gives what a cold process gives.

    The two documents are rewritten in place and may hold one text at both paths, a
    malformed text or a tree that does not lower; the commands include a refused preset
    and the refused --n and --re.
    """

    TEXTS = (one_unknown(-1.0), one_unknown(-2.0), "{not json",
             json.dumps({"n": 2, "rhs": {"op": "hfunction", "name": "sin", "child": {"op": "state"}}}))
    COMMANDS = (
        ["solve", "DOC"],
        ["check-jacobian", "DOC", "--random-states", "2"],
        ["integrate", "DOC", "--h", "0.1", "--steps", "2"],
        ["solve", "DOC", "--re", "3"],
        ["stability", "burgers", "--n", "8"],
        ["stability", "burgers", "--n", "8", "--re", "50"],
        ["integrate", "burgers", "--n", "8", "--h", "0.01", "--steps", "3"],
        ["stability", "burgers", "--n", "8", "--re", "-1"],
        ["solve", "circle-cubic", "--n", "5"],
    )

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        for name in ("a.json", "b.json"):
            (self.dir / name).write_text(self.TEXTS[0])
        cli._slot.clear()

    @rule(argv=st.sampled_from(COMMANDS), name=st.sampled_from(("a.json", "b.json")),
          text=st.none() | st.sampled_from(TEXTS))
    def run(self, argv, name, text):
        """Rewrite the document name in place with text, unless it is None, then run argv on it."""
        if text is not None:
            (self.dir / name).write_text(text)
        argv = [str(self.dir / name) if a == "DOC" else a for a in argv]
        before = list(cli._slot)
        warm = self._main(argv)
        after = list(cli._slot)
        cli._slot.clear()
        assert self._main(argv) == warm
        cli._slot[:] = after
        if "shapes only the burgers preset" in warm[2]:
            assert after == before

    def _main(self, argv):
        """(exit code, stdout, stderr, the file written or None) of one command."""
        out, stdout, stderr = self.dir / "out", io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--out", str(out), *argv])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout.getvalue(), stderr.getvalue(), written

    def teardown(self):
        cli._slot.clear()
        shutil.rmtree(self.dir)


TestSlotMachine = SlotMachine.TestCase
TestSlotMachine.settings = settings(max_examples=50, stateful_step_count=15)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the cyclic collector on or off; restore its state after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    @pytest.mark.parametrize("text, code", [(one_unknown(-1.0), 0), ("{not json", 1)], ids=["good", "malformed"])
    def test_parse_leaves_the_collector_as_it_was(self, tmp_path, capsys, collector, text, code):
        path = tmp_path / "in.json"
        path.write_text(text)
        cli._slot.clear()
        assert main(["solve", str(path)]) == code
        assert gc.isenabled() == collector

    def test_collector_is_paused_while_parsing(self, tmp_path, monkeypatch, collector):
        seen = []
        monkeypatch.setattr(cli, "load_system_json", lambda data: seen.append(gc.isenabled()) or load_system_json(data))
        path = tmp_path / "in.json"
        path.write_text(one_unknown(-1.0))
        cli._slot.clear()
        assert cli._load_input(str(path)).const.tolist() == [-1.0]
        assert seen == [False] and gc.isenabled() == collector


class TestRoundTrip:
    def test_dumped_system_file_round_trips_through_cli_input(self, tmp_path, system_file):
        s = load_system_json(read_json(system_file))
        s2 = circle_cubic_system()
        np.testing.assert_allclose(s.L, s2.L)
        for t, t2 in zip(dense_coefficients(s), dense_coefficients(s2)):
            np.testing.assert_allclose(t, t2)
        out = tmp_path / "trace.json"
        assert main(["--out", str(out), "solve", system_file, "--x0=-1.0,0.2"]) == 0
        assert read_json(str(out))["status"] == "converged"
