"""The right-division kernel and the rings' fused multiply-add.

``elements._divide(G, u, w)`` is the map z with 1+z = (1+u)(1+w)^-1. It
is checked by multiplying back, against the alternating-series inverse
when u is 0, and on u = w. ``Ring._fma(s, a, b)`` is s + ab in one call;
over the finite rings it is compared with ``_add(s, _mul(a, b))`` on
every triple.
"""

from __future__ import annotations

import itertools
import random

from helpers import dense_element, relation_zoo, ring_instances, sparse_element
from oracles import alternating_series_inverse
from mclain import (
    GroupElement,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    ngon,
    random_pruned_order,
)
from mclain.elements import _divide


def divide_relations():
    out = relation_zoo() + [(f"ngon{n}", ngon(n)) for n in (7, 8, 9)]
    return out + [(f"pruned{seed}", random_pruned_order(seed, 9, 0.3)) for seed in range(10)]


def test_divide_multiplies_back_inverts_and_cancels():
    rng = random.Random(1101)
    for name, delta in divide_relations():
        if not delta.pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            elements = [dense_element(group, rng), sparse_element(group, rng)]
            for g, h in itertools.product(elements, repeat=2):
                u, w = g._coeffs, h._coeffs
                assert GroupElement(group, _divide(group, u, w)) * h == g, (name, str(ring))
                assert _divide(group, u, u) == {}, (name, str(ring))
            for g in elements:
                inverse = GroupElement(group, _divide(group, {}, g._coeffs))
                assert inverse == alternating_series_inverse(g), (name, str(ring))


def test_fma_is_add_of_mul_on_every_triple_of_small_rings():
    # Z/4 has zero divisors; M2(Z/2) is noncommutative, so a must stay left.
    for ring in (IntegersMod(4), IntegersMod(7), Matrices2x2Mod(2)):
        payloads = [value.payload for value in ring.elements()]
        for s, a, b in itertools.product(payloads, repeat=3):
            assert ring._fma(s, a, b) == ring._add(s, ring._mul(a, b)), (str(ring), s, a, b)
