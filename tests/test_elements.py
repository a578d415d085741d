"""Group elements: arithmetic, the generator relations, words, printing.

Frozen examples, the group laws and generator relations over the zoo, the
refusals and the grammar's errors. The kernels' values against the
couple-scan oracle are checked in ``tests/test_code_kernels.py`` and
``tests/test_kernels.py``, and the round trips of words and normal forms
through their text in ``tests/test_round_trip_properties.py``.
"""

from __future__ import annotations

import random

import pytest

from helpers import (
    acceptance_relations,
    dense_element,
    random_element,
    relation_zoo,
    ring_instances,
)
from mclain import (
    Comm,
    Gen,
    GeneratorWord,
    Integers,
    IntegersMod,
    InvariantError,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    ParseError,
    RingError,
    chain,
    format_word,
    from_pairs,
    ngon,
    parse_element_expression,
    parse_normal_form,
    spanned_nodes,
)

Z = Integers()


def _group(m: int = 3, ring=Z) -> McLainGroup:
    return McLainGroup(chain(m), ring)


# ---------------------------------------------------------------------------
# construction


def test_group_demands_a_valid_relation():
    bad = from_pairs([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")])
    with pytest.raises(ValueError, match="exchange violation"):
        McLainGroup(bad, Z)
    with pytest.raises(ValueError, match="reflexive"):
        McLainGroup(from_pairs([("1", "1")]), Z)


def test_element_construction():
    group = _group()
    g = group.element({("1", "2"): 2, ("2", "3"): 0})
    assert g.coefficient("1", "2") == Z.from_int(2)
    assert g.coefficient("2", "3") == Z.zero
    # zero coefficients drop out of the support
    assert g.support().pairs == frozenset({("1", "2")})
    assert group.element({}) == group.identity()
    assert group.identity().is_identity()


def test_element_rejects_pairs_outside_the_relation():
    group = _group()
    with pytest.raises(ValueError, match="not in the relation"):
        group.element({("3", "1"): 1})
    with pytest.raises(ValueError, match="not in the relation"):
        group.generator("1", "1", 1)


def test_element_rejects_foreign_ring_values():
    group = _group()
    with pytest.raises(RingError):
        group.element({("1", "2"): IntegersMod(5).one})


def test_cross_group_arithmetic_rejected():
    a = _group(3).identity()
    b = _group(4).identity()
    with pytest.raises(ValueError, match="different groups"):
        a * b
    with pytest.raises(ValueError, match="expected a group element, got 2"):
        a * 2


# ---------------------------------------------------------------------------
# multiplication and inversion


def test_product_picks_up_the_admitted_composite():
    group = _group()
    g = group.generator("1", "2", 2)
    h = group.generator("2", "3", 5)
    product = g * h
    assert product.coefficient("1", "2") == Z.from_int(2)
    assert product.coefficient("2", "3") == Z.from_int(5)
    assert product.coefficient("1", "3") == Z.from_int(10)


def test_product_skips_composites_the_relation_lacks():
    group = McLainGroup(from_pairs([("1", "2"), ("2", "3")]), Z)
    g = group.generator("1", "2", 2)
    h = group.generator("2", "3", 5)
    assert (g * h).coefficients() == {
        ("1", "2"): Z.from_int(2),
        ("2", "3"): Z.from_int(5),
    }


def test_frozen_inverse():
    group = _group()
    g = group.element({("1", "2"): 1, ("2", "3"): 1, ("1", "3"): 1})
    assert str(g.inverse()) == "1 + -1*e(1,2) + -1*e(2,3)"
    assert g.inverse() * g == group.identity()


def test_group_laws_random():
    rng = random.Random(41)
    for _, delta in acceptance_relations():
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            one = group.identity()
            for _ in range(500):
                g = random_element(group, rng)
                h = random_element(group, rng)
                k = random_element(group, rng)
                assert (g * h) * k == g * (h * k)
                assert g * one == g
                assert one * g == g
                assert g * g.inverse() == one
                assert g.inverse() * g == one
                assert (g * h).inverse() == h.inverse() * g.inverse()


def test_inverse_of_inverse():
    rng = random.Random(42)
    group = McLainGroup(ngon(5), IntegersMod(4))
    for _ in range(50):
        g = random_element(group, rng)
        assert g.inverse().inverse() == g


# ---------------------------------------------------------------------------
# the three generator relations


def test_commutator_of_composable_generators_frozen():
    group = _group()
    g = group.generator("1", "2", 2)
    h = group.generator("2", "3", 3)
    assert str(g.commutator(h)) == "1 + 6*e(1,3)"
    # reversed order inverts the coefficient
    assert str(h.commutator(g)) == "1 + -6*e(1,3)"


def test_commutator_order_matters_over_a_noncommutative_ring():
    ring = Matrices2x2Mod(3)
    group = _group(3, ring)
    a = ring.value((0, 1, 0, 0))
    b = ring.value((0, 0, 1, 0))
    ab = group.generator("1", "2", a).commutator(group.generator("2", "3", b))
    ba = group.generator("1", "2", b).commutator(group.generator("2", "3", a))
    assert ab.coefficient("1", "3").payload == (1, 0, 0, 0)
    assert ba.coefficient("1", "3").payload == (0, 0, 0, 1)
    assert ab != ba


def test_composable_generators_commute_when_composite_is_missing():
    group = McLainGroup(from_pairs([("1", "2"), ("2", "3")]), Z)
    g = group.generator("1", "2", 7)
    h = group.generator("2", "3", 11)
    assert g.commutator(h) == group.identity()


def test_cyclically_composable_generators_commute():
    group = McLainGroup(from_pairs([("1", "2"), ("2", "1")]), Z)
    g = group.generator("1", "2", 3)
    h = group.generator("2", "1", 4)
    assert g.commutator(h) == group.identity()
    assert h.commutator(g) == group.identity()


def test_disjoint_generators_commute():
    group = _group(4)
    assert group.generator("1", "2", 5).commutator(
        group.generator("3", "4", 7)
    ) == group.identity()
    # sharing a source or a target still counts as disjoint
    assert group.generator("1", "2", 5).commutator(
        group.generator("1", "3", 7)
    ) == group.identity()
    assert group.generator("1", "3", 5).commutator(
        group.generator("2", "3", 7)
    ) == group.identity()


def test_same_pair_generators_add():
    group = _group()
    g = group.generator("1", "2", 2)
    h = group.generator("1", "2", 5)
    assert g * h == group.generator("1", "2", 7)


def test_generator_relations_random():
    rng = random.Random(43)
    for _, delta in relation_zoo():
        pairs = sorted(delta.pairs)
        if not pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(12):
                (i, j) = rng.choice(pairs)
                (k, l) = rng.choice(pairs)
                a = ring.sample(rng)
                b = ring.sample(rng)
                g = group.generator(i, j, a)
                h = group.generator(k, l, b)
                got = g.commutator(h)
                if (i, j) == (k, l):
                    assert g * h == group.generator(i, j, a + b)
                elif j == k:
                    if (i, l) in delta.pairs:
                        assert got == group.generator(i, l, a * b)
                    else:
                        assert got == group.identity()
                elif j != k and i != l:
                    assert got == group.identity()


# ---------------------------------------------------------------------------
# words


def test_eval_word_tokens():
    group = _group()
    a = Z.from_int(2)
    b = Z.from_int(3)
    word = GeneratorWord((Comm(
        GeneratorWord((Gen("1", "2", a),)),
        GeneratorWord((Gen("2", "3", b),)),
    ),))
    assert str(group.eval_word(word)) == "1 + 6*e(1,3)"
    assert group.eval_word(GeneratorWord()) == group.identity()
    inv = GeneratorWord((Inv(GeneratorWord((Gen("1", "2", a),))),))
    assert group.eval_word(inv) == group.generator("1", "2", -2)


def test_word_token_validation():
    with pytest.raises(ValueError, match="bad word token"):
        GeneratorWord(("zap",))


def test_inv_and_comm_refuse_a_non_word():
    # refused when the token is built, so format_word and eval_word never
    # meet one
    empty = GeneratorWord()
    for build in (lambda: Inv(5), lambda: Comm(5, empty), lambda: Comm(empty, 5)):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == "expected a GeneratorWord, got 5"


def test_inserting_cancelling_factors_preserves_evaluation():
    rng = random.Random(44)
    group = McLainGroup(ngon(4), IntegersMod(3))
    pairs = sorted(group.relation.pairs)
    for _ in range(40):
        tokens = [
            Gen(*rng.choice(pairs), group.ring.sample(rng)) for _ in range(4)
        ]
        word = GeneratorWord(tuple(tokens))
        spot = rng.randrange(len(tokens) + 1)
        filler = GeneratorWord((rng.choice(tokens),))
        padded = GeneratorWord(
            tuple(tokens[:spot])
            + (filler.tokens[0], Inv(filler))
            + tuple(tokens[spot:])
        )
        assert group.eval_word(word) == group.eval_word(padded)


def test_gen_refuses_a_generator_that_would_not_parse_back():
    # an int value would print as a literal that parses to a ring value, and
    # a label outside the label rule prints text the parser refuses or reads
    # as another word; each is refused where the token is built, naming its
    # fault, so format_word never meets one
    v = Integers().from_int(3)
    cases = {
        ("1", "2", 3): "its value is not a ring value",
        ("a b", "2", v): "label 'a b' contains ' '",
        ("1", "node", v): "label 'node' is reserved for node lines",
        ("1", "", v): "label '' is empty",
        ("x;y", "2", v): "label 'x;y' contains ';'",
    }
    for fields, fault in cases.items():
        with pytest.raises(ValueError) as excinfo:
            Gen(*fields)
        assert fault in str(excinfo.value)
    assert format_word(GeneratorWord((Gen("1", "2", v),))) == "x(1,2;3)"


# ---------------------------------------------------------------------------
# nilpotency of the coefficient part


def test_nilpotency_index_examples():
    group = _group()
    assert group.identity().nilpotency_index() == 1
    assert group.generator("1", "2", 9).nilpotency_index() == 2
    g = group.element({("1", "2"): 1, ("2", "3"): 1})
    assert g.nilpotency_index() == 3


def test_nilpotency_index_bounded_by_touched_nodes():
    rng = random.Random(46)
    for _, delta in relation_zoo():
        group = McLainGroup(delta, IntegersMod(5))
        for _ in range(10):
            g = random_element(group, rng)
            touched = len(spanned_nodes(g.support()))
            assert g.nilpotency_index() <= max(1, touched)


@pytest.mark.parametrize("power", ["inverse", "nilpotency_index"])
def test_power_loop_bound_catches_a_corrupted_relation(power):
    # The complete digraph on three nodes breaks the exchange axiom, and
    # over it the sum of all basis elements squares to itself, so its
    # powers never vanish. Swapped in after validation, it must trip the
    # node-bound self-check instead of looping forever.
    group = _group()
    nodes = ("1", "2", "3")
    cycle = from_pairs([(i, j) for i in nodes for j in nodes if i != j])
    object.__setattr__(group, "relation", cycle)
    g = group.element({pair: 1 for pair in cycle.pairs})
    message = "power series exceeded the nilpotency bound; the ambient relation is corrupted"
    with pytest.raises(InvariantError, match=message):
        getattr(g, power)()


# ---------------------------------------------------------------------------
# printing and reparsing


def test_normal_form_layout():
    group = _group()
    assert str(group.identity()) == "1"
    g = group.element({("2", "3"): 4, ("1", "2"): 2, ("1", "3"): -1})
    assert str(g) == "1 + 2*e(1,2) + -1*e(1,3) + 4*e(2,3)"


def test_equal_elements_share_one_hash_and_repr_is_str():
    # A product, its reparsed normal form and element() fed its items in
    # reverse build the same element with differently ordered maps.
    rng = random.Random(48)
    for ring in ring_instances():
        group = McLainGroup(chain(4), ring)
        g = dense_element(group, rng) * dense_element(group, rng)
        assert len(g.coefficients()) > 1
        reverse = dict(reversed(list(g.coefficients().items())))
        routes = [g, parse_normal_form(str(g), group), group.element(reverse)]
        assert len(set(routes)) == 1
        assert len({hash(route) for route in routes}) == 1
        assert repr(g) == str(g)
        assert g.__eq__(str(g)) is NotImplemented and g != str(g)


def test_parse_normal_form_rejects_bad_text():
    group = _group()
    with pytest.raises(ParseError):
        parse_normal_form("2 + 1*e(1,2)", group)
    with pytest.raises(ParseError):
        parse_normal_form("1 + 1*e(1,2) + 2*e(1,2)", group)
    with pytest.raises(ParseError, match="bad normal-form term"):
        parse_normal_form("1 + 3*e(1,2", group)
    with pytest.raises(ParseError, match="bad pair in normal-form term"):
        parse_normal_form("1 + 3*e(1)", group)
    with pytest.raises(ParseError, match="bad coefficient in normal form"):
        parse_normal_form("1 + q*e(1,2)", group)
    with pytest.raises(ParseError, match="unterminated matrix literal"):
        parse_element_expression("x(1,2;[1,0;0,1)", Matrices2x2Mod(2))


# ---------------------------------------------------------------------------
# the expression grammar


def test_parse_expression_frozen():
    group = _group()
    word = parse_element_expression("comm(x(1,2;2),x(2,3;3))", Z)
    assert str(group.eval_word(word)) == "1 + 6*e(1,3)"
    word = parse_element_expression("x(1,2;1)*x(2,3;1)", Z)
    assert str(group.eval_word(word)) == "1 + 1*e(1,2) + 1*e(1,3) + 1*e(2,3)"
    word = parse_element_expression("inv(x(1,2;1)*x(2,3;1))", Z)
    product = group.generator("1", "2", 1) * group.generator("2", "3", 1)
    assert group.eval_word(word) == product.inverse()
    assert str(group.eval_word(word)) == "1 + -1*e(1,2) + -1*e(2,3)"


def test_parse_expression_parentheses_splice():
    group = _group()
    flat = parse_element_expression("x(1,2;1)*x(2,3;1)*x(1,3;1)", Z)
    nested = parse_element_expression("(x(1,2;1)*x(2,3;1))*x(1,3;1)", Z)
    assert group.eval_word(flat) == group.eval_word(nested)
    assert parse_element_expression("1", Z) == GeneratorWord()
    assert parse_element_expression("((1))", Z) == GeneratorWord()
    padded = parse_element_expression("1*x(1,2;1)*1", Z)
    assert group.eval_word(padded) == group.generator("1", "2", 1)


def test_parse_expression_matrix_literals():
    ring = Matrices2x2Mod(3)
    group = _group(3, ring)
    word = parse_element_expression("x(1,2;[0,1;0,0])*x(2,3;[0,0;1,0])", ring)
    got = group.eval_word(word)
    assert got.coefficient("1", "3").payload == (1, 0, 0, 0)


def test_parse_expression_whitespace_and_unicode_minus():
    group = _group()
    word = parse_element_expression(" comm( x(1,2; −2) , x(2,3; 3) ) ", Z)
    assert str(group.eval_word(word)) == "1 + -6*e(1,3)"


def test_parse_expression_errors():
    for bad in [
        "",
        "x(1,2)",
        "x(1,2;)",
        "x(1,2;1",
        "comm(x(1,2;1))",
        "inv()",
        "x(1,2;1)*",
        "x(1,2;1))",
        "y(1,2;1)",
        "1 1",
        "x(1,2;[1,2;3])",
    ]:
        with pytest.raises(ParseError):
            parse_element_expression(bad, Z)


def test_parse_expression_labels_are_arbitrary_words():
    group = McLainGroup(from_pairs([("left", "right")]), Z)
    word = parse_element_expression("x(left,right;5)", Z)
    assert group.eval_word(word) == group.generator("left", "right", 5)
