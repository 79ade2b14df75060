"""Print the size of a checkout's polyjac sources by kind of line.

    python3 tools/srcsize.py [CHECKOUT]

Counts the lines of src/polyjac/*.py under CHECKOUT (default: the checkout
holding this file) and prints one line, "N lines: a code, b docstring,
c comment, d blank".  A line is a docstring line (of a module, class or
function), else blank, else a comment alone, else code.
"""

import argparse
import ast
import io
from pathlib import Path
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text, kinds):
    """Add each line of one module's text to kinds, by its kind."""
    doc = docstring_lines(ast.parse(text))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    comment = {t.start[0] for t in tokens if t.type == tokenize.COMMENT and not t.line[: t.start[1]].strip()}
    for i, line in enumerate(text.splitlines(), 1):
        kinds["docstring" if i in doc else "blank" if not line.strip() else "comment" if i in comment else "code"] += 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent, type=Path)
    kinds = dict.fromkeys(KINDS, 0)
    for path in sorted((parser.parse_args().checkout / "src" / "polyjac").glob("*.py")):
        count(path.read_text(), kinds)
    print(f"{sum(kinds.values())} lines: " + ", ".join(f"{v} {k}" for k, v in kinds.items()))


if __name__ == "__main__":
    main()
