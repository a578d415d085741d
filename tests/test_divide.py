"""The right-division kernel and the rings' fused multiply-add.

``elements._divide(G, u, w)`` is the map z with 1+z = (1+u)(1+w)^-1. It
is checked by multiplying back, against the alternating-series inverse
when u is 0, and on u = w. Word evaluation divides by each ``inv(...)``
and the coset check divides g by its representative, neither through
``GroupElement.inverse``. ``Ring._fma(s, a, b)`` is s + ab in one call;
over the finite rings it is compared with the payload formula of
``oracles.payload_fma`` on every triple.
"""

from __future__ import annotations

import itertools
import random

import mclain.elements
import mclain.factorization
from helpers import counting, dense_element, relation_zoo, ring_instances, sparse_element
from oracles import alternating_series_inverse, payload_fma
from mclain import (
    Gen,
    GeneratorWord,
    GroupElement,
    Inv,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    chain,
    coset_representative,
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


def generator_run(g):
    """g's coefficients as a run of Gen tokens, in sorted pair order."""
    return tuple(Gen(i, j, c) for (i, j), c in sorted(g.coefficients().items()))


def test_word_times_inverse_is_one_division(monkeypatch):
    rng = random.Random(1201)
    group = McLainGroup(chain(6), IntegersMod(7))
    g_run = generator_run(dense_element(group, rng))
    h_run = generator_run(dense_element(group, rng))
    g, h = group.eval_word(GeneratorWord(g_run)), group.eval_word(GeneratorWord(h_run))
    expected = g * alternating_series_inverse(h)
    calls = {"inverse": 0, "_divide": 0}
    with monkeypatch.context() as patch:
        inverse = counting(calls, "inverse", GroupElement.inverse)
        patch.setattr(GroupElement, "inverse", inverse)
        patch.setattr(mclain.elements, "_divide", counting(calls, "_divide", _divide))
        result = group.eval_word(GeneratorWord(g_run + (Inv(GeneratorWord(h_run)),)))
    assert calls == {"inverse": 0, "_divide": 1}
    assert result == expected


def test_coset_check_is_one_division_and_no_inverse(monkeypatch):
    rng = random.Random(1202)
    group = McLainGroup(chain(6), IntegersMod(7))
    far = (p for p in group.relation.pairs if int(p[1]) - int(p[0]) >= 3)
    gamma = group.relation.subset(far)  # normal in a chain
    g = dense_element(group, rng)
    calls = {"inverse": 0, "elements._divide": 0, "factorization._divide": 0}
    with monkeypatch.context() as patch:
        inverse = counting(calls, "inverse", GroupElement.inverse)
        patch.setattr(GroupElement, "inverse", inverse)
        for name, module in (
            ("elements._divide", mclain.elements),
            # where _lift looks the kernel up
            ("factorization._divide", mclain.factorization),
        ):
            patch.setattr(module, "_divide", counting(calls, name, module._divide))
        representative = coset_representative(g, gamma)
    assert calls == {"inverse": 0, "elements._divide": 0, "factorization._divide": 1}
    leftover = alternating_series_inverse(representative) * g
    assert leftover.support().pairs <= gamma.pairs


def test_fma_matches_the_payload_formula_on_every_triple_of_small_rings():
    # Z/4 has zero divisors; M2(Z/2) is noncommutative, so a must stay left.
    for ring in (IntegersMod(4), IntegersMod(7), Matrices2x2Mod(2)):
        payloads = [value.payload for value in ring.elements()]
        for s, a, b in itertools.product(payloads, repeat=3):
            assert ring._fma(s, a, b) == payload_fma(ring, s, a, b), (str(ring), s, a, b)
