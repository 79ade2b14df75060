"""CLI loader fuzz: generated system and expression documents, well-formed and
malformed, run through every command.  Whatever the document, each command
ends in a documented exit code (0, 1 or 2) with at most one line on stderr,
no warning is issued and no exception escapes.  The same document wrapped in
a JSON string is not a document, so every command exits 1 on it.

Documents stay at n <= 6: a dense cubic costs n^4 floats, so the loader is
exercised here, not the memory ceiling.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from polyjac.cli import main

SPECIAL = (float("nan"), float("inf"), -float("inf"), 1e300)
coefficients = st.floats(-3.0, 3.0, allow_nan=False)
numbers = st.one_of(coefficients, st.integers(-2, 7), st.sampled_from(SPECIAL))
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    numbers,
    st.lists(numbers, max_size=3),
    st.dictionaries(st.sampled_from(("op", "n", "x")), numbers, max_size=2),
)
dims = st.integers(0, 6)


def vectors(size):
    return st.lists(coefficients, min_size=size, max_size=size)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows)


@st.composite
def spoiled(draw, doc):
    """The document, or one of its fields deleted or replaced by junk."""
    if not doc or draw(st.integers(0, 5)):
        return doc
    key = draw(st.sampled_from(sorted(doc)))
    doc = dict(doc)
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(junk)
    return doc


@st.composite
def nodes(draw, n, depth):
    """An expression node whose value has (mostly) n rows; returns (node, rows)."""
    leaf_ops = ["state", "linear"]
    more_ops = ["hproduct", "hpower", "hfunction", "diagscale", "sum"]
    op = draw(st.sampled_from(leaf_ops if depth == 0 else leaf_ops + more_ops))
    if op == "state":
        return {"op": "state"}, n
    if op == "linear":
        child, cols = draw(nodes(n, depth - 1)) if depth and draw(st.booleans()) else (None, n)
        rows = draw(st.sampled_from((n, n, draw(dims))))
        node = {"op": "linear", "matrix": draw(matrices(rows, draw(st.sampled_from((cols, cols, draw(dims))))))}
        if child is not None:
            node["child"] = child
        return draw(spoiled(node)), rows
    if op in ("hproduct", "sum"):
        parts = draw(st.lists(nodes(n, depth - 1), max_size=3))
        node = {"op": op, "children": [c for c, _ in parts]}
        if op == "sum" and draw(st.booleans()):
            node["weights"] = draw(st.lists(coefficients, max_size=3))
        return draw(spoiled(node)), n
    child, rows = draw(nodes(n, depth - 1))
    if op == "hpower":
        exponent = draw(st.one_of(st.sampled_from((0, 1, 2, 3, 4, -1, 0.5)), numbers))
        return draw(spoiled({"op": op, "child": child, "exponent": exponent})), rows
    if op == "hfunction":
        name = draw(st.sampled_from(("sin", "cos", "exp", "tan")))
        return draw(spoiled({"op": op, "name": name, "child": child})), rows
    scale = draw(vectors(draw(st.sampled_from((rows, rows, draw(dims))))))
    return draw(spoiled({"op": op, "scale": scale, "child": child})), rows


@st.composite
def tree_documents(draw):
    n = draw(dims)
    rhs, _ = draw(nodes(n, 3))
    return draw(spoiled({"n": n, "rhs": rhs}))


def entries(n, width):
    index = st.integers(-1, n)
    return st.lists(st.tuples(*[index] * (width - 1), coefficients).map(list), max_size=4)


@st.composite
def system_documents(draw):
    n = draw(dims)
    doc = {
        "n": n,
        "L": draw(matrices(n, n)),
        "quadratic": draw(entries(n, 4)),
        "cubic": draw(entries(n, 5)),
        "F": draw(vectors(n)),
    }
    return draw(spoiled(doc))


COMMANDS = (
    ["solve", "--max-iter", "20"],
    ["stability"],
    ["integrate", "--h", "0.01", "--steps", "3"],
    ["check-jacobian", "--random-states", "2"],
)


@settings(max_examples=150)
@given(st.one_of(tree_documents(), system_documents()))
def test_every_command_ends_in_an_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        for content, exits in ((doc, (0, 1, 2)), (json.dumps(doc), (1,))):
            path = os.path.join(tmp, "in.json")
            with open(path, "w") as fh:
                json.dump(content, fh)
            for command in COMMANDS:
                argv = [command[0], path] + command[1:]
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main(argv)
                assert code in exits, (argv, code)
                assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
                assert caught == [], (argv, [str(w.message) for w in caught])
