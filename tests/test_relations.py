"""Relations: axiom checking, the subset calculus, builders, text format.

Frozen examples, the refusals and their messages, and the paper's theorems
over the zoo of ``helpers.relation_zoo`` (normal subsets are closed, the
bracket series dies within the size bound, the bracket of normal subsets
is normal and lies in both, Δ∖Γ is valid). The values of the scans against
their definitions, on drawn relations and digraphs, are checked in
``tests/test_mask_calculus.py``.
"""

from __future__ import annotations

import random

import pytest

from helpers import relation_zoo
from oracles import by_first, fixed_point_pruned_order
from mclain import (
    ExchangeViolation,
    ParseError,
    ReflexiveViolation,
    Relation,
    SubsetChain,
    bracket,
    chain,
    check_axioms,
    closure,
    difference,
    format_relation,
    from_pairs,
    gamma_series,
    has_maximal,
    has_minimal,
    is_closed,
    is_normal,
    isolated,
    ngon,
    ngon_diagonals,
    ngon_edges,
    normal_closure,
    parse_relation_text,
    random_pruned_order,
    random_relation,
    require_valid,
    spanned_nodes,
)


def _rel(*pairs, nodes=()):
    return from_pairs(pairs, nodes)


# ---------------------------------------------------------------------------
# axioms


def test_zoo_is_valid():
    for name, rel in relation_zoo():
        assert rel.axiom_report.valid, name
        require_valid(rel)


def test_reflexive_violation_reported():
    report = check_axioms(_rel(("1", "1"), ("1", "2")))
    assert not report.valid
    assert report.violations == (ReflexiveViolation(("1", "1")),)
    assert str(report.violations[0]) == "reflexive pair (1,1)"


def test_exchange_violation_reported():
    # (1,3) is present but its exchange partner (2,4) is missing.
    rel = _rel(("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3"))
    report = check_axioms(rel)
    assert not report.valid
    assert report.violations == (
        ExchangeViolation(("1", "2", "3", "4"), ("1", "3"), ("2", "4")),
    )
    assert str(report.violations[0]) == (
        "exchange violation at quadruple (1,2,3,4): (1,3) present, (2,4) absent"
    )
    with pytest.raises(ValueError, match="exchange violation"):
        require_valid(rel)


def test_exchange_violation_other_direction():
    # Same quadruple with the other cross pair: (2,4) present, (1,3) absent.
    rel = _rel(("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("2", "4"))
    report = check_axioms(rel)
    assert report.violations == (
        ExchangeViolation(("1", "2", "3", "4"), ("2", "4"), ("1", "3")),
    )


def test_exchange_holds_when_both_cross_pairs_present():
    assert chain(4).axiom_report.valid


def test_repairing_the_witness_restores_validity():
    rel = _rel(("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3"))
    fixed = from_pairs(set(rel.pairs) | {("2", "4")})
    assert fixed.axiom_report.valid


def test_pair_outside_node_set_rejected():
    with pytest.raises(ValueError, match="outside the node set"):
        Relation(frozenset({"1"}), frozenset({("1", "2")}))


def test_subset_rejects_stray_pairs():
    with pytest.raises(ValueError, match="not in the relation"):
        chain(3).subset([("1", "2"), ("9", "9")])


def test_relation_container_protocol():
    rel = chain(3)
    assert ("1", "2") in rel
    assert ("2", "1") not in rel
    assert len(rel) == 3
    assert list(rel) == [("1", "2"), ("1", "3"), ("2", "3")]
    assert spanned_nodes(rel) == frozenset({"1", "2", "3"})
    assert spanned_nodes(_rel(nodes=["7"])) == frozenset()


# ---------------------------------------------------------------------------
# closed and normal subsets


def test_is_closed_examples():
    delta = chain(3)
    assert is_closed(delta.subset([("1", "2")]), delta)
    assert is_closed(delta.subset([("1", "3")]), delta)
    assert not is_closed(delta.subset([("1", "2"), ("2", "3")]), delta)
    assert is_closed(delta, delta)
    gon = ngon(4)
    assert not is_closed(gon.subset(ngon_edges(4)), gon)
    assert is_closed(gon.subset(ngon_diagonals(4)), gon)


def test_is_normal_examples():
    delta = chain(3)
    assert is_normal(delta.subset([("1", "3")]), delta)
    assert is_normal(delta.subset([("1", "2"), ("1", "3")]), delta)
    assert is_normal(delta.subset([("2", "3"), ("1", "3")]), delta)
    assert not is_normal(delta.subset([("1", "2")]), delta)
    gon = ngon(4)
    assert is_normal(gon.subset(ngon_diagonals(4)), gon)
    assert not is_normal(gon.subset(ngon_edges(4)), gon)


def test_subset_checks_demand_containment():
    with pytest.raises(ValueError, match="not a subset"):
        is_closed(_rel(("9", "8")), chain(3))
    with pytest.raises(ValueError, match="not a subset"):
        is_normal(_rel(("9", "8")), chain(3))


def refusal(call, *args) -> str:
    with pytest.raises(ValueError) as excinfo:
        call(*args)
    return str(excinfo.value)


def test_every_subset_entry_point_names_the_stray_pairs():
    delta = chain(3)
    outside = _rel(("9", "8"))
    # As many pairs as delta on delta's nodes, one of them stray: not delta,
    # though the bracket descent shares delta's masks when handed delta.
    swapped = _rel(("1", "2"), ("2", "3"), ("3", "1"))
    calls = (is_closed, is_normal, closure, normal_closure, gamma_series)
    for call in calls + (has_maximal, has_minimal):
        for sub, stray in ((outside, "('9', '8')"), (swapped, "('3', '1')")):
            expected = f"subset is not a subset of the relation: [{stray}]"
            assert refusal(call, sub, delta) == expected, call.__name__
    assert refusal(bracket, outside, swapped, delta) == (
        "first subset is not a subset of the relation: [('9', '8')]"
    )
    assert refusal(bracket, delta, swapped, delta) == (
        "second subset is not a subset of the relation: [('3', '1')]"
    )


def test_closure_examples():
    delta = chain(3)
    got = closure(delta.subset([("1", "2"), ("2", "3")]), delta)
    assert got.pairs == frozenset({("1", "2"), ("2", "3"), ("1", "3")})
    gon = ngon(4)
    got = closure(gon.subset([("0", "1"), ("1", "2")]), gon)
    assert got.pairs == frozenset({("0", "1"), ("1", "2"), ("0", "2")})
    assert closure(gon.subset(ngon_edges(4)), gon).pairs == gon.pairs


def test_normal_implies_closed_on_zoo_subsets():
    rng = random.Random(33)
    for _, delta in relation_zoo():
        pairs = sorted(delta.pairs)
        for _ in range(10):
            omega = delta.subset([p for p in pairs if rng.random() < 0.3])
            if is_normal(omega, delta):
                assert is_closed(omega, delta)


# ---------------------------------------------------------------------------
# brackets and the descending series


def test_bracket_examples():
    delta = chain(3)
    assert bracket(delta, delta, delta).pairs == frozenset({("1", "3")})
    left = delta.subset([("1", "2")])
    right = delta.subset([("2", "3")])
    assert bracket(left, right, delta).pairs == frozenset({("1", "3")})
    assert bracket(right, left, delta).pairs == frozenset({("1", "3")})
    gon = ngon(4)
    assert bracket(gon, gon, gon).pairs == frozenset(ngon_diagonals(4))
    diag = gon.subset(ngon_diagonals(4))
    assert bracket(diag, diag, gon).pairs == frozenset()


def test_bracket_of_normal_subsets_is_normal_and_bounded():
    rng = random.Random(35)
    for _, delta in relation_zoo():
        pairs = sorted(delta.pairs)
        for _ in range(10):
            a = normal_closure(
                delta.subset([p for p in pairs if rng.random() < 0.3]), delta
            )
            b = normal_closure(
                delta.subset([p for p in pairs if rng.random() < 0.3]), delta
            )
            inner = bracket(a, b, delta)
            assert is_normal(inner, delta)
            assert inner.pairs <= a.pairs & b.pairs


def test_gamma_series_chain4():
    delta = chain(4)
    series = gamma_series(delta, delta)
    assert series.direction == "descending"
    assert [sorted(t.pairs) for t in series.terms] == [
        [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")],
        [("1", "3"), ("1", "4"), ("2", "4")],
        [("1", "4")],
        [],
    ]


def test_gamma_series_ngon4():
    delta = ngon(4)
    series = gamma_series(delta, delta)
    assert len(series) == len(series.terms) == 3
    assert series.terms[1].pairs == frozenset(ngon_diagonals(4))
    assert series.terms[2].pairs == frozenset()


def test_gamma_series_of_proper_closed_subset():
    gon = ngon(4)
    diag = gon.subset(ngon_diagonals(4))
    series = gamma_series(diag, gon)
    assert [len(t.pairs) for t in series.terms] == [4, 0]


def test_gamma_series_needs_closed_subset():
    delta = chain(3)
    with pytest.raises(ValueError, match="closed"):
        gamma_series(delta.subset([("1", "2"), ("2", "3")]), delta)


def test_gamma_series_terminates_within_size_bound():
    # For a closed subset with n >= 2 pairs the n-th term is already empty.
    rng = random.Random(35)
    for _, delta in relation_zoo():
        pairs = sorted(delta.pairs)
        subsets = [delta.pairs] + [
            closure(delta.subset([p for p in pairs if rng.random() < 0.4]), delta).pairs
            for _ in range(10)
        ]
        for chosen in subsets:
            gamma = delta.subset(chosen)
            series = gamma_series(gamma, delta)
            n = len(gamma.pairs)
            assert len(series.terms) <= n + 1
            if n >= 2:
                assert len(series.terms) <= n
            for earlier, later in zip(series.terms, series.terms[1:]):
                assert later.pairs <= earlier.pairs


def test_chain_direction_is_validated():
    with pytest.raises(ValueError, match="direction"):
        SubsetChain("sideways", ())


# ---------------------------------------------------------------------------
# isolated pairs and difference


def test_isolated_examples():
    assert isolated(chain(3)).pairs == frozenset({("1", "3")})
    assert isolated(chain(4)).pairs == frozenset({("1", "4")})
    assert isolated(ngon(4)).pairs == frozenset(ngon_diagonals(4))
    assert isolated(_rel(("1", "2"), ("2", "1"))).pairs == frozenset(
        {("1", "2"), ("2", "1")}
    )
    assert isolated(_rel(("1", "2"), ("3", "4"))).pairs == frozenset(
        {("1", "2"), ("3", "4")}
    )


def test_isolated_nonempty_for_valid_nonempty_zoo():
    for name, delta in relation_zoo():
        if delta.pairs:
            assert isolated(delta).pairs, name


def test_difference_examples():
    delta = chain(3)
    out = difference(delta, delta.subset([("1", "3")]))
    assert out.pairs == frozenset({("1", "2"), ("2", "3")})
    assert out.nodes == delta.nodes
    assert out.axiom_report.valid
    gon = ngon(4)
    out = difference(gon, gon.subset(ngon_diagonals(4)))
    assert out.pairs == frozenset(ngon_edges(4))
    assert out.axiom_report.valid


def test_difference_demands_normality():
    delta = chain(3)
    with pytest.raises(ValueError, match="normal"):
        difference(delta, delta.subset([("1", "2")]))


def test_difference_of_random_normal_subsets_stays_valid():
    rng = random.Random(36)
    for _, delta in relation_zoo():
        pairs = sorted(delta.pairs)
        for _ in range(10):
            omega = delta.subset([p for p in pairs if rng.random() < 0.3])
            gamma = normal_closure(omega, delta)
            out = difference(delta, gamma)
            assert out.axiom_report.valid


# ---------------------------------------------------------------------------
# maximal and minimal pairs


def test_has_maximal_and_minimal_examples():
    delta = chain(3)
    assert has_maximal(delta, delta)
    assert has_minimal(delta, delta)
    omega = delta.subset([("1", "2"), ("2", "3")])
    assert has_maximal(omega, delta)
    assert has_minimal(omega, delta)
    gon = ngon(4)
    edges = gon.subset(ngon_edges(4))
    assert not has_maximal(edges, gon)
    assert not has_minimal(edges, gon)
    assert has_maximal(gon.subset(ngon_diagonals(4)), gon)


def test_maximality_needs_a_nonempty_subset():
    delta = chain(3)
    with pytest.raises(ValueError, match="nonempty"):
        has_maximal(delta.subset([]), delta)
    with pytest.raises(ValueError, match="nonempty"):
        has_minimal(delta.subset([]), delta)


# ---------------------------------------------------------------------------
# nonzero basis products walk pairwise distinct nodes


def test_basis_product_walks_have_distinct_nodes():
    # Exhaustive over the zoo: extend walks only while every prefix
    # composite is admitted, and check no node ever repeats.
    for name, delta in relation_zoo():
        assert len(delta.nodes) <= 8, name
        stack = [[i, j] for i, j in sorted(delta.pairs)]
        after = by_first(delta)
        while stack:
            walk = stack.pop()
            assert len(set(walk)) == len(walk), (name, walk)
            if len(walk) > 5:
                continue
            first, last = walk[0], walk[-1]
            for _, nxt in after.get(last, ()):
                if (first, nxt) in delta.pairs:
                    stack.append(walk + [nxt])


# ---------------------------------------------------------------------------
# builders


def test_chain_builder():
    assert chain(1).pairs == frozenset()
    assert chain(1).nodes == frozenset({"1"})
    assert chain(2).pairs == frozenset({("1", "2")})
    assert len(chain(5).pairs) == 10
    with pytest.raises(ValueError):
        chain(0)


def test_ngon_builder():
    gon = ngon(4)
    assert gon.pairs == frozenset(ngon_edges(4)) | frozenset(ngon_diagonals(4))
    assert len(ngon(5).pairs) == 10
    assert len(ngon(6).pairs) == 12
    with pytest.raises(ValueError):
        ngon(3)
    assert ngon_edges(4) == (("0", "1"), ("1", "2"), ("2", "3"), ("3", "0"))
    assert ngon_diagonals(4) == (("0", "2"), ("1", "3"), ("2", "0"), ("3", "1"))


def test_random_relation_is_valid_and_deterministic():
    first, rejections = random_relation(seed=5, node_count=5, density=0.25)
    second, rejections2 = random_relation(seed=5, node_count=5, density=0.25)
    assert first == second
    assert rejections == rejections2
    assert rejections >= 0
    assert first.axiom_report.valid
    other, _ = random_relation(seed=6, node_count=5, density=0.25)
    assert format_relation(other) != "" or not other.pairs


def test_random_relation_argument_validation():
    with pytest.raises(ValueError):
        random_relation(seed=1, node_count=0, density=0.5)
    with pytest.raises(ValueError):
        random_relation(seed=1, node_count=3, density=1.5)
    with pytest.raises(ValueError, match="attempts"):
        random_relation(seed=1, node_count=6, density=0.9, max_attempts=1)


def test_random_pruned_order_is_valid_and_deterministic():
    first = random_pruned_order(seed=9, node_count=6, density=0.4)
    second = random_pruned_order(seed=9, node_count=6, density=0.4)
    assert first == second
    assert first.axiom_report.valid


@pytest.mark.parametrize("node_count", [6, 12, 36])
def test_random_pruned_order_matches_the_fixed_point_construction(node_count):
    for seed in range(3):
        for density in (0.1, 0.3):
            got = random_pruned_order(seed, node_count, density)
            nodes, pairs = fixed_point_pruned_order(seed, node_count, density)
            assert (got.nodes, got.pairs) == (nodes, pairs), (seed, density)


# ---------------------------------------------------------------------------
# text format


def test_parse_relation_text():
    rel = parse_relation_text("# header\n1 2\nnode 7\n\n2 3 # trailing\n")
    assert rel.pairs == frozenset({("1", "2"), ("2", "3")})
    assert rel.nodes == frozenset({"1", "2", "3", "7"})


def test_format_relation_layout():
    rel = from_pairs([("2", "3"), ("1", "2")], nodes=["9"])
    assert format_relation(rel) == "node 9\n1 2\n2 3\n"
    assert format_relation(from_pairs([])) == ""


def test_relation_text_round_trip():
    for name, rel in relation_zoo():
        assert parse_relation_text(format_relation(rel)) == rel, name


def test_parse_relation_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1:"):
        parse_relation_text("1 2 3")
    with pytest.raises(ParseError, match="line 3:"):
        parse_relation_text("1 2\n\nbogus line here")
    with pytest.raises(ParseError, match="line 1: node line"):
        parse_relation_text("node")
    with pytest.raises(ParseError, match="line 2: node line"):
        parse_relation_text("1 2\nnode a b")


def test_parse_relation_keeps_isolated_nodes_through_round_trip():
    rel = parse_relation_text("node 4\n1 2\n")
    assert parse_relation_text(format_relation(rel)) == rel
