"""Dense matrices check G(Δ) for pruned orders, which are not orders.

Let T be the transitive closure of Δ. When T∖Δ is normal in T, deleting
the coefficients at T∖Δ is a homomorphism from G(T) onto G(Δ). Over a
linear extension of T, G(T) is a group of unitriangular matrices, so
any product of elements of G(Δ) can be multiplied out as matrices and
then cut back to Δ. The matrices come from ``tests/oracles.py`` and the
only library calls are the ones under test.
"""

from __future__ import annotations

import random

import pytest

from oracles import mat_identity, mat_inv, mat_mul, naive_normal_closure, naive_transitive_closure
from mclain import IntegersMod, McLainGroup, OrderedForm, random_pruned_order

P = 7
RING = IntegersMod(P)


def linear_extension(nodes, order: set) -> dict:
    """Each node to its position in a total order extending the strict
    order: a pair (a,b) of it gives b strictly more predecessors than a."""
    below = {node: sum(1 for _, b in order if b == node) for node in nodes}
    ranked = sorted(nodes, key=lambda node: (below[node], node))
    return {node: k for k, node in enumerate(ranked)}


def to_matrix(coefficients: dict, place: dict) -> list[list[int]]:
    out = mat_identity(len(place))
    for (i, j), value in coefficients.items():
        out[place[i]][place[j]] = value
    return out


def cut_to(matrix: list[list[int]], delta, order: set, place: dict) -> dict:
    """The nonzero entries at pairs of delta. Entries off the diagonal
    outside the closure must be zero in any product of the group."""
    for i in place:
        for j in place:
            if i != j and (i, j) not in order:
                assert matrix[place[i]][place[j]] == 0
    return {
        pair: matrix[place[pair[0]]][place[pair[1]]]
        for pair in delta.pairs
        if matrix[place[pair[0]]][place[pair[1]]]
    }


def payloads(g) -> dict:
    return {pair: value.payload for pair, value in g.coefficients().items()}


@pytest.mark.parametrize("seed", range(30))
def test_pruned_order_arithmetic_matches_cut_matrices(seed):
    delta = random_pruned_order(seed, 9, 0.3)
    order = naive_transitive_closure(delta.pairs)
    assert all(i != j for i, j in order)
    removed = frozenset(order) - delta.pairs
    assert naive_normal_closure(removed, frozenset(order)) == removed
    place = linear_extension(delta.nodes, order)
    group = McLainGroup(delta, RING)
    pairs = sorted(delta.pairs)
    rng = random.Random(900 + seed)

    def sample():
        return group.element({pair: RING.sample(rng) for pair in pairs})

    def matrix(g):
        return to_matrix(payloads(g), place)

    for _ in range(5):
        g, h = sample(), sample()
        product = mat_mul(matrix(g), matrix(h), P)
        assert payloads(g * h) == cut_to(product, delta, order, place)
        inverse = mat_inv(matrix(g), P)
        assert payloads(g.inverse()) == cut_to(inverse, delta, order, place)

        shuffled = list(pairs)
        rng.shuffle(shuffled)
        coefficients = {pair: RING.from_int(rng.randrange(P)) for pair in shuffled}
        expected = mat_identity(len(place))
        for pair in shuffled:
            expected = mat_mul(
                expected, to_matrix({pair: coefficients[pair].payload}, place), P
            )
        form = OrderedForm(group, tuple(shuffled), coefficients)
        assert payloads(form.product()) == cut_to(expected, delta, order, place)
