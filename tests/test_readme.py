"""The shell examples under README's CLI section run through the parser and
exit 0, so the documented commands cannot drift from the CLI."""

from pathlib import Path
import shlex

import pytest

from polyjac.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """Each `polyjac ...` command of the first sh block after `## CLI`, continuations joined."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("polyjac ")]


EXAMPLES = cli_examples()


def test_every_example_is_found():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("argv", EXAMPLES, ids=[shlex.join(a) for a in EXAMPLES])
def test_example_exits_zero(tmp_path, argv):
    assert main(["--out", str(tmp_path / "out"), *argv]) == 0
