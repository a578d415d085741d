"""The level-ordered inverse and the inverse-free commutator.

``GroupElement.inverse`` and ``GroupElement.commutator`` are right
divisions, solved row by row, each row's targets in the relation's cached
bracket-depth order, shallow first. The oracle is the alternating series
1 - x + x^2 - ... on the couple-scan product of ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import random

import mclain.elements
from helpers import (
    counting,
    dense_element,
    random_element,
    recode,
    relation_zoo,
    ring_instances,
    sparse_element,
)
from oracles import alternating_series_inverse
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
    # row i lists each target of delta once, by the lower central series
    # term that sheds (i,j), shallow first, sorted within a term; so j comes
    # before l whenever (i,l) = (i,j)∘(j,l)
    for name, delta in relation_zoo():
        labels = sorted(delta.nodes)
        rows = {labels[x]: [labels[y] for y in row] for x, row in enumerate(delta._levels)}
        assert len(rows) == len(delta.nodes), name
        listed = [(i, j) for i, row in rows.items() for j in row]
        assert len(listed) == len(delta.pairs) and set(listed) == delta.pairs, name
        _, reports = lower_central_series(delta, IntegersMod(5))
        depth = {pair: k for k, report in enumerate(reports, 1) for pair in report.support.pairs}
        for i, row in rows.items():
            assert row == sorted(row, key=lambda j: (depth[i, j], j)), (name, i)
            place = {j: k for k, j in enumerate(row)}
            for j, l in itertools.product(row, repeat=2):
                if (j, l) in delta.pairs:  # (i,l) = (i,j)∘(j,l)
                    assert place[j] < place[l], (name, (i, l), j)
                    assert depth[i, l] > depth[j, l], (name, (i, l), j)


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
    with monkeypatch.context() as patch:
        inverse = counting(calls, "inverse", GroupElement.inverse)
        patch.setattr(GroupElement, "inverse", inverse)
        for name in ("_divide", "_product"):
            kernel = getattr(mclain.elements, name)
            patch.setattr(mclain.elements, name, counting(calls, name, kernel))
        result = g.commutator(h)
    assert calls == {"inverse": 0, "_divide": 1, "_product": 2}
    assert result == expected
