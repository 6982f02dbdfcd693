"""Every fenced ``python`` block of README.md runs as written, and every
``$ mobzero`` example of its "Command line" section prints what it shows."""

import pathlib
import re
import shlex

import pytest

from mobzero.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
# the shell block of the section: examples apart by blank lines, each a
# command whose continuation lines are indented, then its output lines
SHELL = re.search(r"^## Command line\n.*?^```\n(.*?)^```", TEXT,
                  re.MULTILINE | re.DOTALL).group(1)
EXAMPLES = [example.splitlines() for example in SHELL.strip().split("\n\n")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert EXAMPLES
    assert all(lines[0].startswith("$ mobzero ") for lines in EXAMPLES)


@pytest.mark.parametrize("lines", EXAMPLES,
                         ids=[lines[0].split()[2] for lines in EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(capsys, lines):
    n = 1
    while n < len(lines) and lines[n].startswith(" "):
        n += 1
    argv = shlex.split("\n".join(lines[:n]).removeprefix("$ mobzero "))
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines[n:]
