"""Round trips through the text surfaces, as properties in all three rings.

Anything the library computes it can print and parse back: the word of
``word_factorization`` through the expression grammar, an element
through its printed normal form, and a relation through its text format.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import relation_zoo  # noqa: E402
from mclain import (  # noqa: E402
    Integers,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    format_relation,
    format_word,
    from_pairs,
    parse_element_expression,
    parse_normal_form,
    parse_relation_text,
    random_pruned_order,
    word_factorization,
)

PROFILE = settings(max_examples=100, deadline=None, derandomize=True, database=None)

Z, Z5, M2 = Integers(), IntegersMod(5), Matrices2x2Mod(2)
VALUES = {
    Z: st.integers(-10**6, 10**6).map(Z.from_int),
    Z5: st.integers(0, 4).map(Z5.from_int),
    M2: st.tuples(*[st.integers(0, 1)] * 4).map(M2.value),
}

pruned_orders = st.builds(
    random_pruned_order, st.integers(0, 10**6), st.integers(1, 7), st.floats(0.0, 1.0)
)
relations = st.one_of(
    st.sampled_from([delta for _, delta in relation_zoo()]), pruned_orders
).filter(lambda delta: delta.axiom_report.valid)


@st.composite
def elements(draw, ring):
    """An element of the group over a drawn relation, on a drawn subset
    of its pairs, zero values included."""
    group = McLainGroup(draw(relations), ring)
    pairs = sorted(group.relation.pairs)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return group.element({pair: draw(VALUES[ring]) for pair in chosen})


@pytest.mark.parametrize("ring", [Z, Z5, M2], ids=str)
@PROFILE
@given(data=st.data())
def test_word_factorization_round_trips_through_the_expression_grammar(ring, data):
    g = data.draw(elements(ring))
    text = format_word(word_factorization(g))
    assert g.group.eval_word(parse_element_expression(text, ring)) == g


@pytest.mark.parametrize("ring", [Z, Z5, M2], ids=str)
@PROFILE
@given(data=st.data())
def test_normal_form_print_and_parse_round_trip(ring, data):
    g = data.draw(elements(ring))
    text = str(g)
    parsed = parse_normal_form(text, g.group)
    assert parsed == g
    assert str(parsed) == text


# The label rule: nonempty, not "node", printable, no whitespace and none
# of the punctuation the text surfaces delimit labels with.
label_chars = st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: c.isprintable() and not c.isspace() and c not in "*(),;[]+#"
)
labels = st.text(label_chars, min_size=1, max_size=4).filter(lambda s: s != "node")


@st.composite
def labelled_relations(draw):
    """from_pairs over drawn labels, reflexive pairs and bare nodes included."""
    names = draw(st.lists(labels, min_size=1, max_size=8, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names))))
    bare = draw(st.lists(labels, max_size=3))
    return from_pairs(pairs, names + bare)


@PROFILE
@given(delta=labelled_relations())
def test_relation_text_round_trip(delta):
    text = format_relation(delta)
    parsed = parse_relation_text(text)
    assert parsed == delta
    assert format_relation(parsed) == text
