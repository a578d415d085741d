"""No kernel stores a zero coefficient.

Elements are normalized, so element equality is equality of coefficient
maps. Each kernel adds its sums up from the ring's zero and prunes the
zeros once, at its end; these tests pin that prune on every path that
builds a coefficient map. The rings are small, so sums cancel often.
"""

from __future__ import annotations

import random

import pytest

from helpers import (
    gen_word,
    mixed_word,
    random_element,
    random_factors,
    recode,
    relation_zoo,
)
from mclain import (
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    OrderedForm,
    chain,
    random_pruned_order,
)
from mclain.elements import _divide, _generators_times, _payloads

RINGS = [IntegersMod(2), IntegersMod(4), Matrices2x2Mod(2)]


def relations():
    """The zoo and three more seeded pruned orders, empty relations left out."""
    pruned = [
        (f"pruned{seed}", random_pruned_order(seed, 6, 0.5)) for seed in range(400, 403)
    ]
    return [(name, rel) for name, rel in relation_zoo() + pruned if rel.pairs]


def assert_no_zero(group, coeffs, what):
    labelled = recode(group.relation, coeffs)
    zeros = sorted(p for p, c in labelled.items() if c == group.ring._zero)
    assert not zeros, f"{what} stores a zero at {zeros}"


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_no_kernel_stores_a_zero(ring):
    rng = random.Random(1401)
    for name, delta in relations():
        group = McLainGroup(delta, ring)
        for _ in range(4):
            g = random_element(group, rng, max_terms=8)
            h = random_element(group, rng, max_terms=8)
            where = f"{name} over {ring}"
            assert_no_zero(group, (g * h)._coeffs, f"g*h on {where}")
            assert_no_zero(group, (g * g)._coeffs, f"g*g on {where}")
            assert_no_zero(group, g.inverse()._coeffs, f"inverse on {where}")
            assert_no_zero(group, g.commutator(h)._coeffs, f"commutator on {where}")
            word = group.eval_word(mixed_word(group, rng))
            assert_no_zero(group, word._coeffs, f"eval_word on {where}")
            order = sorted(delta.pairs)
            rng.shuffle(order)
            coefficients = {pair: ring.sample(rng) for pair in order}
            form = OrderedForm(group, tuple(order), coefficients).product()
            assert_no_zero(group, form._coeffs, f"ordered product on {where}")
            payloads = list(_payloads(group, random_factors(group, rng, 6)))
            left = _generators_times(group, payloads, g._coeffs)
            assert_no_zero(group, left, f"_generators_times on {where}")
            quotient = _divide(group, g._coeffs, h._coeffs)
            assert_no_zero(group, quotient, f"_divide on {where}")
            assert (g * g.inverse())._coeffs == {}, where
            assert _divide(group, g._coeffs, g._coeffs) == {}, where


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_fixed_cancellations_on_chain3(ring):
    group = McLainGroup(chain(3), ring)

    def x(i, j, c):
        return group.generator(str(i), str(j), c)

    # Only the x + y base reaches (1,3): the splice has no term to add there.
    assert (x(1, 3, 1) * x(1, 3, -1))._coeffs == {}
    # The cancellation happens inside the splice: e(1,2) e(2,3) meets -e(1,3).
    product = x(1, 2, 1) * (x(2, 3, 1) * x(1, 3, -1))
    assert recode(group.relation, product._coeffs) == {
        ("1", "2"): ring.one.payload,
        ("2", "3"): ring.one.payload,
    }
    order = (("1", "2"), ("2", "3"), ("1", "3"))
    form = OrderedForm(group, order, dict(zip(order, map(ring.from_int, (1, 1, -1)))))
    assert ("1", "3") not in recode(group.relation, form.product()._coeffs)
    assert form.product() == product
    word = gen_word([(("1", "2"), 1), (("2", "3"), 1), (("1", "3"), -1)])
    assert group.eval_word(word)._coeffs == product._coeffs
    g = x(1, 2, 1) * x(2, 3, 1) * x(1, 3, 1)
    assert (g * g.inverse())._coeffs == {}
    assert (g.inverse() * g)._coeffs == {}
