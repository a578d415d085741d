"""The one-generator product kernels at their edges.

``OrderedForm.product``, the ``Gen`` runs of ``eval_word`` and the undos
of ``word_factorization`` multiply by one generator at a time without the
general splice. Their values are checked against an independent oracle in
``tests/test_code_kernels.py``; here the peeled words are pinned, every
factor is validated, zero values included, and no one-generator product
falls back to the general splice, whose plain left-to-right ``*`` product
of ``group.generator`` factors is the reference.
"""

from __future__ import annotations

import random

import pytest

import mclain.elements
from helpers import random_factors, some_zero
from mclain import (
    Gen,
    GeneratorWord,
    Integers,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    OrderedForm,
    RingError,
    chain,
    format_word,
    ngon,
    ordered_factorization,
    random_pruned_order,
    word_factorization,
)


def reference_product(group, factors):
    """x(p1,q1;c1) * x(p2,q2;c2) * ..., one general product each."""
    out = group.identity()
    for (p, q), c in factors:
        out = out * group.generator(p, q, c)
    return out


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
