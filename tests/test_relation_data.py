"""A relation's data is derived once.

The calculus makes the relations it builds from pairs it already holds
with ``Relation._within``, which skips the endpoint check of public
construction; the first test runs that check on every such relation. The
axiom scan and the descents over a whole relation share its successor
lists, ``Relation._succ``; the second test counts the row expansions.
Public construction freezes the node and pair collections it is given;
the last test builds relations from lists and sets.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mclain.relations  # noqa: E402
from mclain import (  # noqa: E402
    IntegersMod,
    McLainGroup,
    Relation,
    bracket,
    chain,
    check_axioms,
    closure,
    difference,
    format_relation,
    from_pairs,
    gamma_series,
    is_normal,
    isolated,
    lower_central_series,
    normal_closure,
    parse_relation_text,
    quotient_project,
    upper_central_series,
)
from test_mask_calculus import valid_relations  # noqa: E402

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def checked(relation: Relation) -> Relation:
    """The relation, after asserting that public construction accepts its
    fields and gives an equal relation."""
    assert type(relation) is Relation
    assert type(relation.nodes) is frozenset and type(relation.pairs) is frozenset
    assert Relation(relation.nodes, relation.pairs) == relation
    return relation


@PROFILE
@given(st.data())
def test_every_relation_the_calculus_builds_passes_the_public_check(data):
    delta = checked(data.draw(valid_relations))
    pairs, nodes = sorted(delta.pairs), sorted(delta.nodes)
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    extra = data.draw(st.sets(st.sampled_from(nodes)))
    checked(from_pairs(chosen, extra))
    checked(parse_relation_text(format_relation(delta)))
    omega = checked(delta.subset(chosen))
    closed = checked(closure(omega, delta))
    normal = checked(normal_closure(omega, delta))
    checked(bracket(omega, closed, delta))
    checked(isolated(delta))
    checked(difference(delta, normal))
    for term in gamma_series(closed, delta).terms:
        checked(term)
    lower, reports = lower_central_series(delta, IntegersMod(5))
    for term in lower.terms:
        checked(term)
    for report in reports:
        checked(report.support)
    for term in upper_central_series(delta).terms:
        checked(term)
    group = McLainGroup(delta, IntegersMod(5))
    coefficients = {pair: 1 + n % 4 for n, pair in enumerate(sorted(chosen))}
    assert checked(group.element(coefficients).support()).pairs == frozenset(chosen)


def test_the_rows_are_expanded_once(monkeypatch):
    delta = chain(12)
    expanded = []
    bits = mclain.relations._bits

    def counting(mask):
        expanded.append(mask)
        return bits(mask)

    monkeypatch.setattr(mclain.relations, "_bits", counting)
    check_axioms(delta)
    lower_central_series(delta, IntegersMod(7))
    upper_central_series(delta)
    assert delta._levels
    assert expanded == [row for row in delta._index.rows if row]
    assert len(expanded) == 11


@pytest.mark.parametrize("make", [list, set])
def test_public_construction_freezes_lists_and_sets(make):
    pairs = [("1", "2"), ("2", "3"), ("1", "3")]
    delta = checked(Relation(make(["1", "2", "3"]), make(pairs)))
    expected = from_pairs(pairs)
    assert delta == expected and hash(delta) == hash(expected)
    assert [t.pairs for t in upper_central_series(delta).terms] == [
        t.pairs for t in upper_central_series(expected).terms
    ]
    gamma = checked(Relation(make(["1", "2", "3"]), make([("1", "3")])))
    assert is_normal(gamma, delta)
    group = McLainGroup(delta, IntegersMod(5))
    g = group.element({("1", "2"): 1, ("1", "3"): 2})
    assert hash(g) == hash(McLainGroup(expected, IntegersMod(5)).element(g.coefficients()))
    assert quotient_project(g, gamma).support().pairs == {("1", "2")}
    with pytest.raises(ValueError, match=r"^pair \(1,2\) uses a node outside"):
        Relation(make(["1"]), make([("1", "2")]))
