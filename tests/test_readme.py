"""The examples in README.md print what the README says they print.

The Python quick tour is run as written, and each printed value is checked
against the ``# ...`` comment on its line. Each ``$ mclain ...`` example is
run through ``cli.main`` in a directory that holds the files the examples
name, and its stdout is checked against the lines shown under it.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from mclain import chain, format_relation
from mclain.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(info):
    """The bodies of the README's fenced blocks whose info string is info."""
    return re.findall(rf"^```{re.escape(info)}\n(.*?)^```$", README, re.M | re.S)


(QUICK_TOUR,) = fenced_blocks("python")


def cli_examples():
    """(command line, expected stdout) for each ``$ mclain`` line."""
    examples = []
    for block in fenced_blocks("sh"):
        lines = block.splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("$ mclain "):
                continue
            out = []
            for follow in lines[k + 1:]:
                if not follow or follow.startswith("$ "):
                    break
                out.append(follow)
            examples.append((line[2:], "".join(f"{o}\n" for o in out)))
    return examples


CLI_EXAMPLES = cli_examples()


def test_the_quick_tour_prints_its_comments():
    printed, expected = [], []
    for line in QUICK_TOUR.splitlines():
        if line.startswith("print("):
            expected.append(line.partition("#")[2].strip())

    def record(*args):
        printed.append(" ".join(str(a) for a in args))

    exec(QUICK_TOUR, {"print": record})
    assert len(expected) == 5
    assert printed == expected


@pytest.fixture
def example_files(tmp_path, monkeypatch):
    """The files the CLI examples name, in the working directory: chain3.txt
    is the relation file shown in the README itself."""
    command_line = README[README.index("## Command line"):]
    relation_file = re.search(r"^```\n(.*?)^```$", command_line, re.M | re.S).group(1)
    (tmp_path / "chain3.txt").write_text(relation_file)
    (tmp_path / "chain4.txt").write_text(format_relation(chain(4)))
    (tmp_path / "order.txt").write_text("1 2\n2 3\n1 3\n")
    (tmp_path / "gamma.txt").write_text("1 3\n")
    monkeypatch.chdir(tmp_path)


def test_the_readme_shows_every_subcommand():
    commands = {shlex.split(line)[1] for line, _ in CLI_EXAMPLES}
    assert commands == {"check", "series", "eval", "factor", "quotient", "demo-ngon"}


@pytest.mark.parametrize("line, stdout", CLI_EXAMPLES, ids=[line for line, _ in CLI_EXAMPLES])
def test_a_cli_example_prints_what_the_readme_shows(example_files, capsys, line, stdout):
    assert main(shlex.split(line)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""
