"""The level-ordered inverse and the inverse-free commutator.

``GroupElement.inverse`` and ``GroupElement.commutator`` are right
divisions, solved pair by pair over the relation's cached levels,
shallow first. The oracle is the alternating
series 1 - x + x^2 - ..., spliced term by term in ``tests/oracles.py``.
"""

from __future__ import annotations

import random

import mclain.elements
from helpers import (
    dense_element,
    random_element,
    recode,
    relation_zoo,
    ring_instances,
    sparse_element,
)
from oracles import alternating_series_inverse, decompositions
from mclain import (
    GroupElement,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    chain,
    lower_central_series,
    ngon,
    random_pruned_order,
    random_relation,
)


def non_order_relations():
    """Cyclic relations, rejection-sampled ones and pruned orders, none of
    them transitive in general."""
    out = [(f"ngon{n}", ngon(n)) for n in (7, 8, 9)]
    for nodes in (7, 8):
        for seed in range(3):
            delta, _ = random_relation(seed=900 + seed, node_count=nodes, density=0.3)
            out.append((f"random{nodes}_{seed}", delta))
    out += [(f"pruned{seed}", random_pruned_order(seed, 9, 0.3)) for seed in range(10)]
    return out


def test_levels_partition_the_relation_by_bracket_depth():
    for name, delta in relation_zoo():
        levels = [tuple(recode(delta, dict.fromkeys(level))) for level in delta._levels]
        assert all(levels), name
        assert sum(len(level) for level in levels) == len(delta.pairs), name
        depth = {pair: k for k, level in enumerate(levels, 1) for pair in level}
        assert depth.keys() == delta.pairs, name
        for p, factors in decompositions(delta, delta).items():
            for q in factors:
                assert depth[p] > depth[q], (name, p, q)
        _, reports = lower_central_series(delta, IntegersMod(5))
        assert [frozenset(level) for level in levels] == [
            report.support.pairs for report in reports
        ], name


def test_inverse_and_commutator_match_the_oracle_off_orders():
    rng = random.Random(909)
    for name, delta in non_order_relations():
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            dense = [dense_element(group, rng) for _ in range(2)]
            sparse = [sparse_element(group, rng) for _ in range(2)]
            for g, h in (dense, sparse, (dense[0], sparse[0])):
                g_inv, h_inv = alternating_series_inverse(g), alternating_series_inverse(h)
                assert g.inverse() == g_inv, (name, str(ring), str(g))
                assert g.commutator(h) == g * h * g_inv * h_inv, (name, str(ring))
                assert h.commutator(g) == h * g * h_inv * g_inv, (name, str(ring))


def test_inverse_never_reaches_the_general_splice(monkeypatch):
    rng = random.Random(911)
    cases = []
    for delta, ring in (
        (chain(9), IntegersMod(7)),
        (ngon(6), Matrices2x2Mod(3)),
        (chain(9), Matrices2x2Mod(2)),
    ):
        group = McLainGroup(delta, ring)
        for g in (dense_element(group, rng), random_element(group, rng)):
            cases.append((g, alternating_series_inverse(g)))

    def refuse(*args, **kwargs):
        raise AssertionError("the general splice was called")

    with monkeypatch.context() as patch:
        patch.setattr(mclain.elements, "_splice", refuse)
        for g, expected in cases:
            assert g.inverse() == expected


def test_commutator_is_one_division_of_two_products(monkeypatch):
    rng = random.Random(913)
    group = McLainGroup(chain(6), IntegersMod(7))
    g, h = dense_element(group, rng), dense_element(group, rng)
    expected = g * h * alternating_series_inverse(g) * alternating_series_inverse(h)
    calls = {"inverse": 0, "_divide": 0, "_product": 0}

    def counted(name, call):
        def wrapper(*args):
            calls[name] += 1
            return call(*args)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(GroupElement, "inverse", counted("inverse", GroupElement.inverse))
        for name in ("_divide", "_product"):
            patch.setattr(mclain.elements, name, counted(name, getattr(mclain.elements, name)))
        result = g.commutator(h)
    assert calls == {"inverse": 0, "_divide": 1, "_product": 2}
    assert result == expected
