"""One label rule for every text surface: relation files, order files,
expressions and printed normal forms."""

from __future__ import annotations

import re

import pytest

from mclain import (
    Integers,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    ParseError,
    Relation,
    format_relation,
    from_pairs,
    parse_element_expression,
    parse_normal_form,
    parse_order_file,
    parse_order_text,
    parse_relation_file,
    parse_relation_text,
)
from mclain.cli import main

# Labels that the rule admits although they look like punctuation elsewhere.
ODD_LABELS = ("a-b", "n.1", "x", "inv", "1", "ü", "k=2", "<q>", "p'")


def test_every_admitted_label_round_trips_through_every_surface():
    pairs = list(zip(ODD_LABELS, ODD_LABELS[1:]))
    delta = parse_relation_text(format_relation(from_pairs(pairs)))
    assert delta.pairs == frozenset(pairs)
    assert parse_order_text("".join(f"{i} {j}\n" for i, j in pairs)) == tuple(pairs)
    for ring in (IntegersMod(7), Matrices2x2Mod(3)):
        group = McLainGroup(delta, ring)
        g = group.element({pair: ring.one for pair in pairs})
        assert parse_normal_form(str(g), group) == g
        text = "*".join(f"x({i},{j};{ring.one})" for i, j in pairs)
        assert group.eval_word(parse_element_expression(text, ring)) == g


@pytest.mark.parametrize("char", list("*(),;[]+"))
def test_labels_with_punctuation_are_rejected_with_their_line(char):
    label = f"a{char}b"
    with pytest.raises(ParseError, match=re.escape(f"line 2: label '{label}'")):
        parse_relation_text(f"1 2\n{label} c\n")
    with pytest.raises(ParseError, match="line 1: label"):
        parse_relation_text(f"node {label}")
    with pytest.raises(ParseError, match="line 2: label"):
        parse_order_text(f"1 2\nc {label}\n")


def test_cli_names_the_line_of_a_bad_label(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text("# pairs\na+b c\n")
    code = main(["eval", "--relation", str(path), "x(a+b,c;2)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: line 2: label 'a+b' contains '+'")


def test_a_byte_order_mark_is_not_part_of_the_first_label(tmp_path, capsys):
    # Editors on some systems start UTF-8 files with U+FEFF; read as text
    # it would glue onto the first label and make a node "\ufeff1".
    text = "1 2\n2 3\n1 3\n"
    runs = []
    for mark in ("", "\ufeff"):
        rel, order = tmp_path / f"rel{len(mark)}.txt", tmp_path / f"order{len(mark)}.txt"
        rel.write_text(mark + text, encoding="utf-8")
        order.write_text(mark + text, encoding="utf-8")
        assert parse_relation_file(str(rel)) == parse_relation_text(text)
        assert parse_order_file(str(order)) == parse_order_text(text)
        for argv in (
            ["series", str(rel), "--lower"],
            ["factor", "--relation", str(rel), "--order", str(order), "x(1,2;1)"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((argv[0], code, captured.out, captured.err))
    assert runs[:2] == runs[2:]
    assert runs[0][2].count("gamma") == 3


@pytest.mark.parametrize("label", ["a+b", "p,q", "e(x)", "a b", "a\tb", ""])
def test_from_pairs_refuses_labels_that_break_the_rule(label):
    # Accepted, a+b would print 1 + 2*e(a+b,c), which does not parse back.
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        McLainGroup(from_pairs([(label, "c")]), Integers())
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        from_pairs([("1", "2")], nodes=[label])


def test_node_is_a_reserved_label_everywhere():
    # A pair (node, x) would print as the line "node x", which declares a
    # bare node instead.
    with pytest.raises(ValueError, match="label 'node' is reserved"):
        from_pairs([("node", "x")])
    for text in ("x node\n", "1 2\nnode node\n"):
        with pytest.raises(ParseError, match="label 'node' is reserved"):
            parse_relation_text(text)
    with pytest.raises(ParseError, match="line 2: label 'node' is reserved"):
        parse_order_text("1 2\nnode x\n")
    assert parse_relation_text("node x\n").nodes == frozenset({"x"})


@pytest.mark.parametrize("label", ["a+b", "p,q", "a b", "", "node"])
def test_group_refuses_a_hand_built_relation_that_breaks_the_rule(label):
    # Public construction applies the rule, so no relation, and no group over
    # one, holds a label that would print as text that does not parse back:
    # a relation on "a b" would print the line "a b c".
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        Relation(frozenset({label, "c"}), frozenset({(label, "c")}))
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        Relation(frozenset({"1", "2", label}), frozenset({("1", "2")}))


def test_group_refuses_a_hand_built_relation_with_labels_that_are_not_strings():
    # The joined-label scan cannot join an int; the refusal still names it.
    with pytest.raises(ValueError, match=re.escape("label 1 is not a string")):
        Relation(frozenset({1, 2}), frozenset({(1, 2)}))
    with pytest.raises(ValueError, match=re.escape("label 3 is not a string")):
        Relation(frozenset({"a", 3}), frozenset({("a", 3)}))


# Labels with a character that does not print: a byte-order mark inside a
# file (as left by concatenating two files), a zero-width space, a soft
# hyphen, an escape that a terminal would act on, and NUL.
UNPRINTABLE_LABELS = ["\ufeff2", "3\u200b", "a\u00adb", "2\x1b3", "x\x00"]


@pytest.mark.parametrize("label", UNPRINTABLE_LABELS)
def test_labels_that_do_not_print_are_refused_everywhere(tmp_path, capsys, label):
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        from_pairs([(label, "c")])
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        Relation(frozenset({"1", "2", label}), frozenset({("1", "2")}))
    text = f"1 2\n{label} 3\n"
    with pytest.raises(ParseError, match=re.escape(f"line 2: label {label!r}")):
        parse_relation_text(text)
    with pytest.raises(ParseError, match=re.escape(f"line 2: label {label!r}")):
        parse_order_text(text)
    path = tmp_path / "rel.txt"
    path.write_text(text, encoding="utf-8")
    for argv in (["check", str(path)], ["series", str(path), "--lower"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: label ")
        assert captured.err.count("\n") == 1
