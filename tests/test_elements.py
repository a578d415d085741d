"""Group elements: arithmetic, the generator relations, words, printing."""

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
from oracles import alternating_series_inverse
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
    One,
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
    assert group.eval_word(GeneratorWord((One(),))) == group.identity()
    inv = GeneratorWord((Inv(GeneratorWord((Gen("1", "2", a),))),))
    assert group.eval_word(inv) == group.generator("1", "2", -2)


def test_word_token_validation():
    with pytest.raises(ValueError, match="bad word token"):
        GeneratorWord(("zap",))


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
            + (filler.tokens[0], Inv(filler), One())
            + tuple(tokens[spot:])
        )
        assert group.eval_word(word) == group.eval_word(padded)


def test_format_word_round_trips_through_the_parser():
    rng = random.Random(45)
    group = McLainGroup(chain(4), IntegersMod(5))
    pairs = sorted(group.relation.pairs)
    for _ in range(40):
        tokens = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            gen = Gen(*rng.choice(pairs), group.ring.sample(rng))
            if kind == 0:
                tokens.append(gen)
            elif kind == 1:
                tokens.append(Inv(GeneratorWord((gen,))))
            else:
                other = Gen(*rng.choice(pairs), group.ring.sample(rng))
                tokens.append(Comm(GeneratorWord((gen,)), GeneratorWord((other,))))
        word = GeneratorWord(tuple(tokens))
        text = format_word(word)
        reparsed = parse_element_expression(text, group.ring)
        assert group.eval_word(reparsed) == group.eval_word(word)
    two, three = group.ring.from_int(2), group.ring.from_int(3)
    word = GeneratorWord((Gen("1", "2", two), One(), Gen("2", "3", three)))
    assert format_word(word) == "x(1,2;2)*1*x(2,3;3)"
    reparsed = parse_element_expression(format_word(word), group.ring)
    assert group.eval_word(reparsed) == group.eval_word(word)


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


def test_squaring_inverse_equals_the_alternating_series():
    rng = random.Random(67)
    rings = ring_instances() + [Matrices2x2Mod(3)]
    relations = relation_zoo() + [("chain9", chain(9))]
    for _, delta in relations:
        for ring in rings:
            group = McLainGroup(delta, ring)
            dense = group.element({pair: ring.sample(rng) for pair in delta.pairs})
            for g in (dense, random_element(group, rng)):
                assert g.inverse() == alternating_series_inverse(g)


# ---------------------------------------------------------------------------
# printing and reparsing


def test_normal_form_layout():
    group = _group()
    assert str(group.identity()) == "1"
    g = group.element({("2", "3"): 4, ("1", "2"): 2, ("1", "3"): -1})
    assert str(g) == "1 + 2*e(1,2) + -1*e(1,3) + 4*e(2,3)"


def test_normal_form_round_trip_random():
    rng = random.Random(47)
    for _, delta in relation_zoo():
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(6):
                g = random_element(group, rng)
                assert parse_normal_form(str(g), group) == g


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
