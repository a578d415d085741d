"""The ordered sweep on closed subsets too large for the recursive oracle.

Relations are valid pruned orders (``tests/test_mask_calculus.py``), the
closed subset is the closure of a drawn set of pairs, the order is
shuffled and the element takes a sampled value, zero allowed, at every
pair of the subset. By uniqueness of the ordered form, a sweep that does
not raise and whose form multiplies back to the element has found the
coefficients; on at most six pairs they must also be the oracle's. Every
ring of ``helpers.ring_instances`` runs, the noncommutative M2(Z/2)
included, where a coefficient put on the wrong side of its term shows.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import ring_instances  # noqa: E402
from mclain import McLainGroup, closure, ordered_factorization  # noqa: E402
from oracles import recursive_ordered_oracle  # noqa: E402
from test_mask_calculus import valid_relations  # noqa: E402

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def closed_orders(draw):
    """A valid relation of more than six pairs, and a shuffled order on the
    closure of some of its pairs: all of them where hypothesis shrinks to."""
    delta = draw(valid_relations.filter(lambda delta: len(delta.pairs) > 6))
    pairs = draw(st.permutations(sorted(delta.pairs)))
    dropped = draw(st.integers(0, len(pairs) - 1))  # shrinks toward all of delta
    gamma = closure(delta.subset(pairs[dropped:]), delta)
    return delta, tuple(draw(st.permutations(sorted(gamma.pairs))))


@PROFILE
@given(closed_orders(), st.integers(0, 2**32 - 1))
def test_ordered_form_multiplies_back_to_a_dense_element(case, seed):
    delta, order = case
    rng = random.Random(seed)
    for ring in ring_instances():
        group = McLainGroup(delta, ring)
        g = group.element({pair: ring.sample(rng) for pair in order})
        form = ordered_factorization(g, order)
        assert form.product() == g
        if len(order) <= 6:
            assert form.coefficients == recursive_ordered_oracle(g, order)
