"""The mask calculus against the definitions.

Every relation-level scan runs on the bitmask index of ``Relation``. The
oracles in ``tests/oracles.py`` read each answer off its definition
instead, by testing every couple of pairs or quadruple of nodes with no
index, and each result here must agree with them exactly: violation lists
in order, closures, absorption tests, series terms, bracket levels,
factorization words, and the self-check that fires with its message.
Labels are drawn so that sorted order is not numeric order ("10" < "9"),
node sets carry isolated nodes, and subsets may come with a node set of
their own.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mclain import (  # noqa: E402
    AxiomReport,
    IntegersMod,
    McLainGroup,
    Relation,
    closure,
    from_pairs,
    gamma_series,
    is_closed,
    is_normal,
    isolated,
    normal_closure,
    random_pruned_order,
    upper_central_series,
    word_factorization,
)
from helpers import recode  # noqa: E402
from oracles import (  # noqa: E402
    naive_closure,
    naive_gamma_terms,
    naive_isolated,
    naive_levels,
    naive_normal_closure,
    naive_transitive_closure,
    naive_upper_terms,
    naive_violations,
    naive_word_factorization,
)

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)

LABELS = ("1", "2", "3", "9", "10", "11", "a", "b")
LOOP = from_pairs([("10", "10"), ("10", "9")])
TWO_CYCLE = from_pairs([("9", "10"), ("10", "9"), ("10", "11")])
EXCHANGE_BREAKER = from_pairs(
    [("9", "10"), ("10", "11"), ("11", "2"), ("9", "2"), ("9", "11")]
)
# (9,11) absent and (10,2) present: the scan's other branch
ABSENT_BREAKER = from_pairs(
    [("9", "10"), ("10", "11"), ("11", "2"), ("9", "2"), ("10", "2")]
)

labels = st.sampled_from(LABELS)
extra_nodes = st.sets(labels, max_size=3)
digraphs = st.builds(
    from_pairs, st.sets(st.tuples(labels, labels), max_size=14), extra_nodes
)


@st.composite
def pruned_orders(draw):
    """A strict order on three, six, seven or eight shuffled labels, whose
    steps include the first two of the ranking and at least as many more as
    there are labels, with the normal closure of at most one of its pairs
    removed: a valid relation, mostly with more than six pairs and many
    composable ones, whose numbering is not the order's ranking. The orders
    on three labels keep relations of three pairs or fewer in the draw."""
    ranked = draw(st.permutations(LABELS))[: draw(st.sampled_from([3, 6, 7, 8]))]
    forward = [(a, b) for n, a in enumerate(ranked) for b in ranked[n + 1 :]]
    more = draw(st.sets(st.sampled_from(forward), min_size=len(ranked)))
    steps = {*zip(ranked, ranked[1:3]), *more}
    order = frozenset(naive_transitive_closure(steps))
    seeds = draw(st.sets(st.sampled_from(sorted(order)), max_size=1))
    pairs = order - naive_normal_closure(frozenset(seeds), order)
    return from_pairs(pairs, set(ranked) | draw(extra_nodes))


relabelled = st.builds(
    lambda delta, shift: from_pairs(
        [(str(int(i) + shift), str(int(j) + shift)) for i, j in delta.pairs],
        [str(int(n) + shift) for n in delta.nodes],
    ),
    st.builds(
        random_pruned_order, st.integers(0, 10**6), st.integers(7, 8), st.floats(0.4, 1)
    ),
    st.sampled_from([0, 5]),
)
valid_relations = st.one_of(pruned_orders(), relabelled)
relations = st.one_of(digraphs, valid_relations)


def fresh(relation: Relation) -> Relation:
    """An equal relation whose index and axiom report are not built yet."""
    return Relation(relation.nodes, relation.pairs)


def forced_valid(relation: Relation) -> Relation:
    """A fresh copy that passes validation whatever its axioms say."""
    out = fresh(relation)
    object.__setattr__(out, "axiom_report", AxiomReport(True, ()))
    return out


@st.composite
def subsets(draw, delta: Relation):
    """A subset of delta, over delta's node set or over the nodes its pairs
    touch, with or without one more node of delta."""
    if not delta.pairs:
        return delta
    pairs = frozenset(draw(st.sets(st.sampled_from(sorted(delta.pairs)))))
    if draw(st.booleans()):
        return delta.subset(pairs)
    nodes = {n for pair in pairs for n in pair}
    nodes |= draw(st.sets(st.sampled_from(sorted(delta.nodes)), max_size=1))
    return Relation(frozenset(nodes), pairs)


def outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


with_subset = relations.flatmap(lambda delta: st.tuples(st.just(delta), subsets(delta)))
breakers = [(LOOP, LOOP), (TWO_CYCLE, TWO_CYCLE), (EXCHANGE_BREAKER, EXCHANGE_BREAKER)]


def breaker_examples(test):
    for case in breakers:
        test = example(case)(test)
    return test


@PROFILE
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
@example(ABSENT_BREAKER)
def test_violations_match_in_order(delta):
    assert list(fresh(delta).axiom_report.violations) == naive_violations(delta)


@PROFILE
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


@PROFILE
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


@PROFILE
@given(with_subset)
@breaker_examples
def test_gamma_series_matches_or_fails_alike(case):
    delta, sub = case
    for gamma in (sub, closure(sub, delta)):
        got = outcome(lambda: [t.pairs for t in gamma_series(gamma, fresh(delta)).terms])
        assert got == outcome(naive_gamma_terms, gamma.pairs, delta.pairs)
    got = outcome(lambda: [t.pairs for t in gamma_series(delta, fresh(delta)).terms])
    assert got == outcome(naive_gamma_terms, delta.pairs, delta.pairs)


@PROFILE
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
@example(from_pairs([("1", "2"), ("3", "2"), ("3", "1"), ("1", "3")]))
def test_levels_match_or_fail_alike(delta):
    def levels():
        codes = fresh(delta)._levels
        return tuple(tuple(recode(delta, dict.fromkeys(level))) for level in codes)

    assert outcome(levels) == outcome(naive_levels, delta.pairs)


@PROFILE
@given(relations)
@example(LOOP)
@example(TWO_CYCLE)
@example(EXCHANGE_BREAKER)
def test_upper_series_matches_or_fails_alike(delta):
    terms = lambda: [t.pairs for t in upper_central_series(forced_valid(delta)).terms]
    assert outcome(terms) == outcome(naive_upper_terms, delta.pairs)


@PROFILE
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
    expected = (AssertionError, "support closure has no top level to peel")
    assert outcome(word_factorization, g) == outcome(naive_word_factorization, g)
    assert outcome(word_factorization, g) == expected
