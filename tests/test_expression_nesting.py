"""How deep an expression may nest.

The parser admits 100 levels of "(", "inv(" and "comm(" and refuses the
next one with a ParseError that names its position, so a deep input is a
usage error (exit 2) and never a RecursionError traceback. Every word it
admits can still be printed, compared and hashed.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from mclain import (
    IntegersMod,
    McLainGroup,
    ParseError,
    chain,
    format_relation,
    format_word,
    parse_element_expression,
)
from mclain.cli import main

GEN = "x(1,2;3)"


def nested(kind, depth):
    """GEN inside depth levels of one kind of bracket."""
    if kind == "paren":
        return "(" * depth + GEN + ")" * depth
    if kind == "inv":
        return "inv(" * depth + GEN + ")" * depth
    return "comm(" * depth + GEN + ",1)" * depth


@pytest.fixture
def group():
    return McLainGroup(chain(3), IntegersMod(7))


@pytest.mark.parametrize("kind", ["paren", "inv", "comm"])
def test_100_levels_parse_and_evaluate(group, tmp_path, capsys, kind):
    # 100 inverses cancel in pairs, and a commutator with 1 is the identity.
    expected = group.identity() if kind == "comm" else group.generator("1", "2", 3)
    word = parse_element_expression(nested(kind, 100), group.ring)
    assert group.eval_word(word) == expected
    rel = tmp_path / "rel.txt"
    rel.write_text(format_relation(group.relation))
    code = main(["eval", "--relation", str(rel), "--ring", "Z/7", nested(kind, 100)])
    assert code == 0
    assert capsys.readouterr().out == f"{expected}\n"


@pytest.mark.parametrize("kind", ["paren", "inv", "comm"])
def test_a_word_at_the_cap_prints_compares_and_hashes(group, kind):
    text = nested(kind, 100)
    word = parse_element_expression(text, group.ring)
    twin = parse_element_expression(text, group.ring)
    # A parenthesized expr splices into its product, so only inv and comm
    # keep their nesting in the word.
    expected = GEN if kind == "paren" else text
    assert format_word(word) == expected
    assert repr(word) == repr(twin)
    assert word == twin
    assert hash(word) == hash(twin)


@pytest.mark.parametrize("kind", ["paren", "inv", "comm"])
def test_101_levels_are_a_parse_error_that_names_the_position(group, kind):
    text = nested(kind, 101)
    position = text.index(GEN)
    with pytest.raises(ParseError, match=f"deeper than 100 at position {position}$"):
        parse_element_expression(text, group.ring)


@pytest.mark.parametrize("kind", ["paren", "inv", "comm"])
def test_257_levels_are_a_parse_error_that_names_the_position(group, kind):
    # The error names where the 101st level opens, not the innermost one.
    text = nested(kind, 257)
    position = nested(kind, 101).index(GEN)
    with pytest.raises(ParseError, match=f"deeper than 100 at position {position}$"):
        parse_element_expression(text, group.ring)


def test_cli_refuses_1200_parentheses_with_one_error_line(group, tmp_path):
    rel = tmp_path / "rel.txt"
    rel.write_text(format_relation(group.relation))
    argv = ["eval", "--relation", str(rel), nested("paren", 1200)]
    proc = subprocess.run(
        [sys.executable, "-m", "mclain", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
