"""The one-generator product kernels against the general product.

``OrderedForm.product``, the ``Gen`` runs of ``eval_word`` and the undos
of ``word_factorization`` multiply by one generator at a time without the
general splice. The reference here is the plain left-to-right ``*``
product of ``group.generator`` factors, which does go through the splice.
"""

from __future__ import annotations

import random

import pytest

import mclain.elements
from helpers import (
    gen_word,
    random_element,
    random_factors,
    relation_zoo,
    ring_instances,
    some_zero,
)
from mclain import (
    Comm,
    Gen,
    GeneratorWord,
    Integers,
    IntegersMod,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    One,
    OrderedForm,
    RingError,
    chain,
    format_word,
    ngon,
    ordered_factorization,
    random_pruned_order,
    word_factorization,
)
from mclain.elements import _generators_times, _payloads


def reference_product(group, factors, start=None):
    """start * x(p1,q1;c1) * x(p2,q2;c2) * ..., one general product each."""
    out = group.identity() if start is None else start
    for (p, q), c in factors:
        out = out * group.generator(p, q, c)
    return out


def kernel_relations():
    """The zoo, which holds ngon(5), and five more seeded pruned orders."""
    pruned = [
        (f"pruned{seed}", random_pruned_order(seed, 7, 0.5)) for seed in range(300, 305)
    ]
    return relation_zoo() + pruned


# ---------------------------------------------------------------------------
# equivalence with the general product


def test_ordered_product_equals_the_general_product():
    rng = random.Random(801)
    for _, delta in kernel_relations():
        if not delta.pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(4):
                order = sorted(delta.pairs)
                rng.shuffle(order)
                coefficients = {pair: some_zero(ring, rng) for pair in order}
                form = OrderedForm(group, tuple(order), coefficients)
                expected = reference_product(
                    group, [(pair, coefficients[pair]) for pair in order]
                )
                assert form.product() == expected


def test_eval_word_equals_the_general_product():
    rng = random.Random(802)
    for _, delta in kernel_relations():
        if not delta.pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(4):
                factors = random_factors(group, rng, rng.randint(0, 12))
                word = GeneratorWord(tuple(Gen(*pair, c) for pair, c in factors))
                assert group.eval_word(word) == reference_product(group, factors)


def test_eval_word_with_other_tokens_between_generator_runs():
    # Inv, Comm and One tokens split the Gen tokens into runs; each token
    # still multiplies in at its own position.
    rng = random.Random(803)
    for _, delta in kernel_relations():
        if not delta.pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(3):
                tokens, expected = [], group.identity()
                for _ in range(rng.randint(1, 5)):
                    run = random_factors(group, rng, rng.randint(0, 4))
                    tokens.extend(Gen(*pair, c) for pair, c in run)
                    expected = reference_product(group, run, expected)
                    inner = random_factors(group, rng, 2)
                    inner_word = GeneratorWord(tuple(Gen(*p, c) for p, c in inner))
                    inner_value = reference_product(group, inner)
                    kind = rng.randrange(3)
                    if kind == 0:
                        tokens.append(Inv(inner_word))
                        expected = expected * inner_value.inverse()
                    elif kind == 1:
                        other = random_factors(group, rng, 2)
                        other_word = GeneratorWord(tuple(Gen(*p, c) for p, c in other))
                        tokens.append(Comm(inner_word, other_word))
                        expected = expected * inner_value.commutator(
                            reference_product(group, other)
                        )
                    else:
                        tokens.append(One())
                assert group.eval_word(GeneratorWord(tuple(tokens))) == expected
            # x * inv(y * comm(a, b) * z): a division by a word that holds a
            # commutator, after a nonempty generator run.
            x, y, z, a, b = (random_factors(group, rng, 2) for _ in range(5))
            inner = GeneratorWord(
                (*gen_word(y), Comm(gen_word(a), gen_word(b)), *gen_word(z))
            )
            value = reference_product(group, a).commutator(reference_product(group, b))
            value = reference_product(group, y) * value * reference_product(group, z)
            expected = reference_product(group, x) * value.inverse()
            assert group.eval_word(GeneratorWord((*gen_word(x), Inv(inner)))) == expected


def test_both_kernels_multiply_onto_a_nonzero_start():
    rng = random.Random(804)
    for _, delta in kernel_relations():
        if not delta.pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(3):
                x = random_element(group, rng, max_terms=8)
                factors = random_factors(group, rng, rng.randint(0, 8))
                # The kernel takes payloads validated by the caller and
                # applies each factor in turn on the left.
                payloads = list(_payloads(group, factors))
                left = _generators_times(group, payloads, x._coeffs)
                expected = reference_product(group, factors[::-1]) * x
                assert left == expected._coeffs


# Tokens emitted by word_factorization before the row kernel took over its
# undos, pinned so that the peeling order and the peeled values stay put.
WORD_PINS = [
    (
        chain(4), IntegersMod(5), 1,
        "x(1,2;1)*x(2,3;2)*x(3,4;3)*x(1,3;2)*x(2,4;4)",
    ),
    (
        ngon(5), Matrices2x2Mod(2), 2,
        "x(0,1;[0,0;0,1])*x(1,2;[0,0;1,1])*x(2,3;[0,1;1,1])*x(3,4;[1,0;0,1])"
        "*x(4,0;[0,1;1,1])*x(0,2;[0,1;0,1])*x(1,3;[1,1;0,0])*x(2,4;[1,0;1,1])"
        "*x(3,0;[0,1;1,1])*x(4,1;[1,1;1,0])",
    ),
    (
        random_pruned_order(302, 6, 0.7), Integers(), 3,
        "x(1,4;-2)*x(2,4;8)*x(3,2;2)*x(4,6;9)*x(6,5;-7)*x(1,6;27)*x(2,6;-77)"
        "*x(3,4;6)",
    ),
]


@pytest.mark.parametrize("delta, ring, seed, text", WORD_PINS)
def test_word_factorization_tokens_are_pinned(delta, ring, seed, text):
    group = McLainGroup(delta, ring)
    rng = random.Random(seed)
    g = group.element({pair: ring.sample(rng) for pair in sorted(delta.pairs)})
    word = word_factorization(g)
    assert format_word(word) == text
    assert group.eval_word(word) == g


# ---------------------------------------------------------------------------
# validation of every factor, zero values included


Z7 = IntegersMod(7)
FOREIGN = IntegersMod(5)


@pytest.mark.parametrize("k", [0, 3])
def test_ordered_product_validates_every_factor(k):
    group = McLainGroup(chain(3), Z7)
    outside = OrderedForm(
        group, (("1", "2"), ("3", "1")), {("1", "2"): Z7.one, ("3", "1"): Z7.from_int(k)}
    )
    with pytest.raises(ValueError, match=r"pair \(3,1\) is not in the relation"):
        outside.product()
    foreign = OrderedForm(
        group,
        (("1", "2"), ("2", "3")),
        {("1", "2"): Z7.one, ("2", "3"): FOREIGN.from_int(k)},
    )
    with pytest.raises(RingError):
        foreign.product()


@pytest.mark.parametrize("k", [0, 3])
def test_eval_word_validates_every_generator(k):
    group = McLainGroup(chain(3), Z7)
    lead = Gen("1", "2", Z7.one)
    outside = GeneratorWord((lead, Gen("3", "1", Z7.from_int(k))))
    with pytest.raises(ValueError, match=r"pair \(3,1\) is not in the relation"):
        group.eval_word(outside)
    foreign = GeneratorWord((lead, Gen("2", "3", FOREIGN.from_int(k))))
    with pytest.raises(RingError):
        group.eval_word(foreign)


# ---------------------------------------------------------------------------
# no fallback to the general splice


def test_one_generator_products_never_reach_the_general_splice(monkeypatch):
    rng = random.Random(805)
    cases = []
    for delta, ring in (
        (chain(6), Z7),
        (ngon(5), Matrices2x2Mod(2)),
        (random_pruned_order(303, 7, 0.6), Integers()),
    ):
        group = McLainGroup(delta, ring)
        order = sorted(delta.pairs)
        rng.shuffle(order)
        coefficients = {pair: some_zero(ring, rng) for pair in order}
        factors = random_factors(group, rng, 10)
        g = group.element({pair: ring.sample(rng) for pair in sorted(delta.pairs)})
        cases.append((
            group, g, OrderedForm(group, tuple(order), coefficients),
            reference_product(group, [(pair, coefficients[pair]) for pair in order]),
            GeneratorWord(tuple(Gen(*pair, c) for pair, c in factors)),
            reference_product(group, factors),
        ))

    def refuse(*args, **kwargs):
        raise AssertionError("the general splice was called")

    words = []
    with monkeypatch.context() as patch:
        patch.setattr(mclain.elements, "_splice", refuse)
        for group, g, form, form_value, word, word_value in cases:
            assert form.product() == form_value
            assert group.eval_word(word) == word_value
            assert ordered_factorization(g, form.order).product() == g
            words.append(word_factorization(g))
        with pytest.raises(AssertionError, match="general splice"):
            cases[0][1] * cases[0][1]
    for (group, g, *_), word in zip(cases, words):
        assert reference_product(group, [((t.source, t.target), t.value) for t in word]) == g
