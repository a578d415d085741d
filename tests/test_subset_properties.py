"""Properties of the subset calculus on small random digraphs.

The digraphs include reflexive pairs, 2-cycles and exchange breakers, so
the absorption scans are checked beyond the relations the group accepts.
Each property compares the library against a brute-force oracle that
tests every couple of pairs and uses no index.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import mclain.relations  # noqa: E402
import mclain.series  # noqa: E402
from helpers import relation_zoo  # noqa: E402
from mclain import (  # noqa: E402
    AxiomReport,
    ExchangeViolation,
    Integers,
    Relation,
    bracket,
    chain,
    check_axioms,
    closure,
    difference,
    from_pairs,
    gamma_series,
    has_maximal,
    has_minimal,
    is_closed,
    is_normal,
    isolated,
    lower_central_series,
    normal_closure,
    random_pruned_order,
    upper_central_series,
)
from oracles import (  # noqa: E402
    naive_bracket,
    naive_closure,
    naive_exchange_violations,
    naive_gamma_series,
    naive_isolated,
    naive_normal_closure,
    naive_upper_central_series,
)
from test_mask_calculus import ABSENT_BREAKER  # noqa: E402

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)

NODES = "12345"
LOOP = from_pairs([("1", "1"), ("1", "2")])
TWO_CYCLE = from_pairs([("1", "2"), ("2", "1"), ("2", "3")])
EXCHANGE_BREAKER = from_pairs(
    [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")]
)

digraphs = st.sets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=12
).map(from_pairs)
pruned_orders = st.builds(
    random_pruned_order, st.integers(0, 10**6), st.integers(1, 7), st.floats(0.0, 1.0)
)
relations = st.one_of(digraphs, pruned_orders)
valid_relations = relations.filter(lambda delta: delta.axiom_report.valid)


def subsets(delta: Relation):
    pairs = sorted(delta.pairs)
    if not pairs:
        return st.just(delta)
    return st.sets(st.sampled_from(pairs)).map(delta.subset)


def fresh(relation: Relation) -> Relation:
    """An equal relation whose indexes and axiom report are not built yet."""
    return Relation(relation.nodes, relation.pairs)


@PROFILE
@given(st.data())
def test_is_closed_and_is_normal_match_the_fixed_points(data):
    delta = data.draw(relations)
    sub = data.draw(subsets(delta))
    assert is_closed(sub, delta) == (naive_closure(sub.pairs, delta.pairs) == sub.pairs)
    assert is_normal(sub, delta) == (
        naive_normal_closure(sub.pairs, delta.pairs) == sub.pairs
    )


@PROFILE
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
def test_isolated_matches_the_couple_scan(delta):
    assert isolated(delta).pairs == naive_isolated(delta.pairs)


@PROFILE
@given(st.data())
def test_bracket_matches_the_couple_scan(data):
    delta = data.draw(relations)
    a, b = data.draw(subsets(delta)), data.draw(subsets(delta))
    assert bracket(a, b, delta).pairs == naive_bracket(a.pairs, b.pairs, delta.pairs)


@PROFILE
@given(relations.flatmap(lambda delta: st.tuples(st.just(delta), subsets(delta))))
@example((LOOP, LOOP))
@example((TWO_CYCLE, TWO_CYCLE))
@example((EXCHANGE_BREAKER, EXCHANGE_BREAKER))
def test_gamma_series_matches_the_iterated_couple_scan(case):
    # On a loop (i,i) = (i,i)∘(i,i) the iteration never dies out, and the
    # termination check must fire exactly then.
    delta, sub = case
    gamma = delta.subset(naive_closure(sub.pairs, delta.pairs))
    expected = naive_gamma_series(gamma.pairs, delta.pairs)
    if expected is None:
        with pytest.raises(AssertionError, match="bracket series failed to terminate"):
            gamma_series(gamma, delta)
    else:
        terms = gamma_series(gamma, delta).terms
        assert [t.pairs for t in terms] == expected
        assert all(t.nodes == delta.nodes for t in terms)


@PROFILE
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
@example(ABSENT_BREAKER)
def test_exchange_violations_match_the_quadruple_scan(delta):
    found = [
        (v.quadruple, v.present, v.absent)
        for v in fresh(delta).axiom_report.violations
        if isinstance(v, ExchangeViolation)
    ]
    assert found == naive_exchange_violations(delta.nodes, delta.pairs)


@PROFILE
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
def test_upper_central_series_steps_match_the_oracle(delta):
    if not delta.axiom_report.valid:
        with pytest.raises(ValueError, match="violates the structural axioms"):
            upper_central_series(delta)
        # forced past validation, the scan must still step as the oracle does
        delta = fresh(delta)
        object.__setattr__(delta, "axiom_report", AxiomReport(True, ()))
    expected = naive_upper_central_series(delta.pairs)
    if expected is None:
        with pytest.raises(AssertionError, match="stalled before exhausting"):
            upper_central_series(delta)
    else:
        assert [t.pairs for t in upper_central_series(delta).terms] == expected


@PROFILE
@given(valid_relations)
def test_lower_terms_sit_inside_the_upper_terms_of_the_same_class(delta):
    # A nilpotent group of class c has gamma_(i+1) inside zeta_(c-i), and both
    # series reach their end in exactly c steps.
    lower = gamma_series(delta, delta).terms
    upper = upper_central_series(delta).terms
    c = len(lower) - 1
    assert len(upper) == c + 1
    for i, term in enumerate(lower):
        assert term.pairs <= upper[c - i].pairs


@PROFILE
@given(relations)
def test_check_axioms_returns_the_cached_report(delta):
    assert check_axioms(delta) is delta.axiom_report
    assert check_axioms(delta) is check_axioms(delta)


@contextmanager
def index_builds():
    """The relations whose _index is built inside."""
    built: list[Relation] = []
    prop = Relation.__dict__["_index"]
    original = prop.func

    def build(relation):
        built.append(relation)
        return original(relation)

    prop.func = build
    try:
        yield built
    finally:
        prop.func = original


@PROFILE
@given(st.data())
def test_series_index_only_the_relations_they_are_given(data):
    delta = data.draw(valid_relations)
    closed = closure(data.draw(subsets(delta)), delta)
    delta, gamma = fresh(delta), fresh(closed)
    with index_builds() as built:
        gamma_series(gamma, delta)
    assert all(r is gamma or r is delta for r in built)
    delta = fresh(delta)
    with index_builds() as built:
        upper_central_series(delta)
    assert all(r is delta for r in built)
    delta, gamma = fresh(delta), fresh(closed)
    with index_builds() as built:
        is_closed(gamma, delta)
    assert all(r is delta for r in built)


def test_the_calculus_builds_masks_of_node_numbers_only(monkeypatch):
    # Labels cross into node numbers only where a subset is encoded, so
    # every mask builder call, the series' included, gets pairs of ints.
    received = []
    real = mclain.relations._masks

    def recording(pairs, *rest):
        pairs = list(pairs)
        received.extend(pairs)
        return real(pairs, *rest)

    monkeypatch.setattr(mclain.relations, "_masks", recording)
    monkeypatch.setattr(mclain.series, "_masks", recording)
    for _, zoo in relation_zoo():
        delta = fresh(zoo)
        sub = delta.subset(sorted(delta.pairs)[::2])
        closed, normal = closure(sub, delta), normal_closure(sub, delta)
        assert is_closed(closed, delta) and is_normal(normal, delta)
        bracket(sub, closed, delta)
        gamma_series(closed, delta)
        isolated(delta)
        difference(delta, normal)
        has_maximal(closed, delta)
        has_minimal(closed, delta)
        lower_central_series(delta, Integers())
        upper_central_series(delta)
    assert received
    assert all(type(x) is int and type(y) is int for x, y in received)


def test_bracket_and_extremal_tests_index_only_the_ambient_relation():
    delta = from_pairs(chain(60).pairs)
    sub = delta.subset([("1", "2"), ("2", "3")])
    with index_builds() as built:
        assert bracket(sub, sub, delta).pairs == {("1", "3")}
        assert has_maximal(sub, delta) and has_minimal(sub, delta)
    assert built == [delta]
    assert set(vars(sub)) == {"nodes", "pairs"}  # nothing cached on the subset
