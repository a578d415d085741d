"""The mask calculus against the definitions.

Every relation-level scan runs on the bitmask index of ``Relation``. The
oracles in ``tests/oracles.py`` read each answer off its definition
instead, by testing every couple of pairs or quadruple of nodes with no
index, and each result here must agree with them exactly: violation lists
in order, closures, brackets, absorption tests, series terms, bracket
levels, factorization words, and the self-checks and validation errors
that fire with their messages. The relations, drawn in
``tests/strategies.py``, include reflexive pairs, 2-cycles and exchange
breakers, so the scans are checked beyond the relations the group
accepts. The last tests check which relations the calculus indexes, that
its masks hold node numbers only and that series terms hold the
relation's own pair objects.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

import mclain.relations  # noqa: E402
import mclain.series  # noqa: E402
from helpers import relation_zoo  # noqa: E402
from mclain import (  # noqa: E402
    Integers,
    IntegersMod,
    InvariantError,
    McLainGroup,
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
    upper_central_series,
    word_factorization,
)
from oracles import (  # noqa: E402
    naive_bracket,
    naive_closure,
    naive_gamma_terms,
    naive_isolated,
    naive_levels,
    naive_normal_closure,
    naive_upper_terms,
    naive_violations,
    naive_word_factorization,
)
from strategies import (  # noqa: E402
    ABSENT_BREAKER,
    EXCHANGE_BREAKER,
    LOOP,
    TWO_CYCLE,
    forced_valid,
    fresh,
    outcome,
    profile,
    relations,
    subsets,
    valid_relations,
    with_subset,
)

breakers = [(LOOP, LOOP), (TWO_CYCLE, TWO_CYCLE), (EXCHANGE_BREAKER, EXCHANGE_BREAKER)]


def breaker_examples(test):
    for case in breakers:
        test = example(case)(test)
    return test


@profile(150)
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
@example(ABSENT_BREAKER)
def test_violations_match_in_order(delta):
    assert list(fresh(delta).axiom_report.violations) == naive_violations(delta)


@profile(150)
@given(with_subset)
@breaker_examples
def test_closures_match(case):
    delta, sub = case
    assert closure(sub, fresh(delta)) == Relation(
        delta.nodes, naive_closure(sub.pairs, delta.pairs)
    )
    assert normal_closure(sub, fresh(delta)) == Relation(
        delta.nodes, naive_normal_closure(sub.pairs, delta.pairs)
    )


@profile(150)
@given(with_subset)
@breaker_examples
def test_absorption_tests_match(case):
    delta, sub = case
    assert is_closed(sub, fresh(delta)) == (
        naive_closure(sub.pairs, delta.pairs) == sub.pairs
    )
    assert is_normal(sub, fresh(delta)) == (
        naive_normal_closure(sub.pairs, delta.pairs) == sub.pairs
    )
    assert isolated(fresh(delta)).pairs == naive_isolated(delta.pairs)


@profile(150)
@given(with_subset)
@breaker_examples
def test_gamma_series_matches_or_fails_alike(case):
    # the first term is gamma as given; the later ones lie over delta's nodes
    delta, sub = case
    for gamma in (sub, closure(sub, delta), delta):
        terms = lambda: [(t.nodes, t.pairs) for t in gamma_series(gamma, fresh(delta)).terms]
        expected = outcome(naive_gamma_terms, gamma.pairs, delta.pairs)
        if type(expected) is list:
            nodes = [gamma.nodes] + [delta.nodes] * (len(expected) - 1)
            expected = list(zip(nodes, expected))
        assert outcome(terms) == expected


@profile(150)
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
@example(from_pairs([("1", "2"), ("3", "2"), ("3", "1"), ("1", "3")]))
def test_levels_match_or_fail_alike(delta):
    # row i lists its targets j by the bracket level of (i,j), shallow first
    # and sorted within a level
    labels = sorted(delta.nodes)

    def levels():
        rows = fresh(delta)._levels
        return {labels[x]: tuple(labels[y] for y in row) for x, row in enumerate(rows)}

    def naive_rows(pairs):
        rows = dict.fromkeys(labels, ())
        for level in naive_levels(pairs):
            for i, j in level:
                rows[i] += (j,)
        return rows

    rows = outcome(levels)
    assert rows == outcome(naive_rows, delta.pairs)
    if type(rows) is not dict:
        return
    # where the levels exist and (i,l) = (i,j)∘(j,l), j comes before l in
    # row i, and (i,l) lies deeper than (j,l)
    depth = {pair: k for k, level in enumerate(naive_levels(delta.pairs)) for pair in level}
    for i, row in rows.items():
        for j, l in itertools.permutations(row, 2):
            if (j, l) in delta.pairs:
                assert row.index(j) < row.index(l), (i, j, l)
                assert depth[i, l] > depth[j, l], (i, j, l)


@profile(150)
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
def test_upper_series_matches_or_fails_alike(delta):
    # refused unless valid; forced past validation, it steps as the oracle does
    if not delta.axiom_report.valid:
        with pytest.raises(ValueError, match="violates the structural axioms"):
            upper_central_series(fresh(delta))
    terms = lambda: [t.pairs for t in upper_central_series(forced_valid(delta)).terms]
    assert outcome(terms) == outcome(naive_upper_terms, delta.pairs)


@profile(150)
@given(valid_relations, st.integers(0, 2**32 - 1))
def test_words_match(delta, seed):
    rng = random.Random(seed)
    group = McLainGroup(delta, IntegersMod(3))
    g = group.element({p: rng.randrange(3) for p in delta.pairs})
    assert word_factorization(g) == naive_word_factorization(g)


def test_the_peel_check_fires_alike():
    group = McLainGroup(from_pairs([("a", "b")]), IntegersMod(3))
    object.__setattr__(group, "relation", from_pairs([("a", "a"), ("a", "b")]))
    g = group.element({("a", "a"): 1, ("a", "b"): 2})
    expected = (InvariantError, "support closure has no top level to peel")
    assert outcome(word_factorization, g) == outcome(naive_word_factorization, g)
    assert outcome(word_factorization, g) == expected


@profile(150)
@given(st.data())
def test_bracket_matches_the_couple_scan(data):
    delta = data.draw(relations)
    a, b = data.draw(subsets(delta)), data.draw(subsets(delta))
    assert bracket(a, b, delta).pairs == naive_bracket(a.pairs, b.pairs, delta.pairs)


@profile(150)
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


@profile(150)
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


@profile(150)
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


@profile(150)
@given(valid_relations)
def test_series_terms_share_the_relations_pair_objects(delta):
    # Terms and factor supports hold delta's own pairs, not equal copies,
    # so a series adds no pair tuples to what the relation holds.
    own = {id(pair) for pair in delta.pairs}
    lower, reports = lower_central_series(delta, Integers())
    upper = upper_central_series(delta)
    held = [term.pairs for term in lower.terms + upper.terms]
    held += [report.support.pairs for report in reports]
    assert all(id(pair) in own for pairs in held for pair in pairs)


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
