"""Factorizations: flat words, ordered products, and the n-gon obstruction."""

from __future__ import annotations

import math
import random
import subprocess
import sys

import pytest

import mclain.elements
from helpers import (
    acceptance_relations,
    counting,
    dense_element,
    random_element,
    relation_zoo,
    ring_instances,
)
from oracles import (
    brute_force_matches,
    greedy_peel_factorization,
    recursive_ordered_oracle,
)
from mclain import (
    Integers,
    IntegersMod,
    InvariantError,
    McLainGroup,
    OrderedForm,
    Relation,
    chain,
    closure,
    coset_representative,
    demonstrate_ngon_obstruction,
    format_word,
    from_pairs,
    gamma_series,
    minimal_closed_support,
    ngon,
    ngon_diagonals,
    ngon_edges,
    ordered_factorization,
    quotient_project,
    random_pruned_order,
    word_factorization,
)

Z = Integers()


# ---------------------------------------------------------------------------
# closed support


def test_minimal_closed_support_examples():
    group = McLainGroup(chain(3), Z)
    g = group.element({("1", "2"): 1, ("2", "3"): 1})
    assert minimal_closed_support(g).pairs == frozenset(
        {("1", "2"), ("2", "3"), ("1", "3")}
    )
    assert minimal_closed_support(group.generator("1", "3", 4)).pairs == frozenset(
        {("1", "3")}
    )
    assert minimal_closed_support(group.identity()).pairs == frozenset()


# ---------------------------------------------------------------------------
# flat words


def test_word_factorization_frozen():
    group = McLainGroup(chain(3), Z)
    g = group.element({("1", "2"): 1, ("2", "3"): 1, ("1", "3"): 1})
    word = word_factorization(g)
    assert format_word(word) == "x(1,2;1)*x(2,3;1)"
    assert group.eval_word(word) == g


def test_word_factorization_identity_is_the_empty_word():
    group = McLainGroup(chain(3), Z)
    word = word_factorization(group.identity())
    assert len(word) == 0
    assert format_word(word) == "1"


def test_word_factorization_decodes_only_the_pairs_it_returns():
    # Each pass saturates the residual's codes as node numbers; a code is
    # turned into labels only for the generator that peels it. The reads
    # are counted by a mapping swapped into a fresh relation's index.
    decoded = []

    class Counting(dict):
        def __getitem__(self, code):
            decoded.append(code)
            return super().__getitem__(code)

    relation = chain(8)
    real = relation._index.by_code
    object.__setattr__(relation, "_index", relation._index._replace(by_code=Counting(real)))
    group = McLainGroup(relation, IntegersMod(7))
    g = group.element({pair: 1 + n % 6 for n, pair in enumerate(sorted(relation))})
    word = word_factorization(g)
    assert [real[code] for code in decoded] == [
        (token.source, token.target) for token in word.tokens
    ]
    assert group.eval_word(word) == g


def test_word_factorization_round_trips_at_volume():
    rng = random.Random(62)
    for name, delta in acceptance_relations():
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(500):
                g = random_element(group, rng)
                assert group.eval_word(word_factorization(g)) == g, name


# ---------------------------------------------------------------------------
# ordered products


def test_ordered_factorization_frozen_chain3():
    group = McLainGroup(chain(3), Z)
    g = group.element({("1", "2"): 1, ("2", "3"): 1})
    form = ordered_factorization(g, (("1", "2"), ("2", "3"), ("1", "3")))
    assert form.lines() == ["(1,2) ; 1", "(2,3) ; 1", "(1,3) ; -1"]
    assert form.product() == g
    form = ordered_factorization(g, (("2", "3"), ("1", "2"), ("1", "3")))
    assert form.lines() == ["(2,3) ; 1", "(1,2) ; 1", "(1,3) ; 0"]
    assert form.product() == g


def test_ordered_factorization_of_the_identity_is_all_zeros():
    group = McLainGroup(chain(3), Z)
    order = (("1", "2"), ("2", "3"), ("1", "3"))
    form = ordered_factorization(group.identity(), order)
    assert all(not v for v in form.coefficients.values())


def test_ordered_factorization_argument_errors():
    group = McLainGroup(chain(3), Z)
    g = group.element({("1", "2"): 1, ("2", "3"): 1})
    with pytest.raises(ValueError, match="not a total order"):
        ordered_factorization(g, (("1", "2"), ("1", "2"), ("2", "3"), ("1", "3")))
    with pytest.raises(ValueError) as excinfo:
        ordered_factorization(g, (("1", "2"), ("2", "3"), ("3", "1")))
    assert str(excinfo.value) == "order contains pairs outside the relation: [('3', '1')]"
    with pytest.raises(ValueError, match="does not cover"):
        ordered_factorization(g, (("1", "2"), ("1", "3")))
    with pytest.raises(ValueError, match="closed"):
        ordered_factorization(g, (("1", "2"), ("2", "3")))


def test_ordered_form_refuses_an_order_pair_without_a_coefficient():
    group = McLainGroup(chain(3), IntegersMod(7))
    with pytest.raises(ValueError, match=r"^order pair \(2,3\) has no coefficient$"):
        OrderedForm(group, (("1", "2"), ("2", "3")), {("1", "2"): 1})


def test_ordered_coefficients_are_unique():
    rng = random.Random(63)
    group = McLainGroup(chain(4), IntegersMod(5))
    pairs = sorted(group.relation.pairs)
    for _ in range(30):
        g = random_element(group, rng)
        order = list(pairs)
        rng.shuffle(order)
        order = tuple(order)
        form = ordered_factorization(g, order)
        # solving again from the product changes nothing
        again = ordered_factorization(form.product(), order)
        assert again.coefficients == form.coefficients
        # perturbing any single coefficient changes the product
        victim = rng.choice(order)
        perturbed = dict(form.coefficients)
        perturbed[victim] = perturbed[victim] + group.ring.one
        bumped = group.identity()
        for pair in order:
            bumped = bumped * group.generator(*pair, perturbed[pair])
        assert bumped != g


def test_filtration_order_splits_into_level_blocks():
    rng = random.Random(64)
    for delta in [chain(4), ngon(4), chain(5)]:
        group = McLainGroup(delta, IntegersMod(7))
        series = gamma_series(delta, delta)
        slices = [
            sorted(current.pairs - deeper.pairs)
            for current, deeper in zip(series.terms, series.terms[1:])
        ]
        order = tuple(pair for block in slices for pair in block)
        for _ in range(10):
            g = random_element(group, rng)
            form = ordered_factorization(g, order)
            rebuilt = group.identity()
            for block in slices:
                h = group.identity()
                for pair in block:
                    h = h * group.generator(*pair, form.coefficients[pair])
                rebuilt = rebuilt * h
            assert rebuilt == g


class NegationFreeMod(IntegersMod):
    """Z/n with negation broken to the identity, so a - b = a + b."""

    def _neg(self, a: int) -> int:
        return a


# chain(m) in a ring whose subtraction is wrong for n > 2, in sorted order,
# with the sum of the step-one generators as target. Its level-2
# coefficients come out as 1 instead of -1, so the form's product misses g
# at level 2: on chain(3) that is the last round of the descent, and on
# chain(4) and chain(5) it is not.
SWEEP_FAULTS = [
    (3, "level sweep did not converge to the target"),
    (4, "level sweep residual escaped its bracket level"),
    (5, "level sweep residual escaped its bracket level"),
]


def test_the_sweep_makes_one_fma_per_composable_triple_at_most(monkeypatch):
    # Each term c(v,w) Q[w,l] of a pair (v,l) is one _fma, read off a suffix
    # sum, so however many levels chain(20) has, the sweep beyond its
    # self-check makes at most one per triple v < w < l, and the self-check's
    # product is its one ordered product, so its one call of the row kernel.
    fmas = []

    class CountingMod(IntegersMod):
        def _fma(self, s, a, b):
            fmas.append(1)
            return super()._fma(s, a, b)

    kernel, products = mclain.elements._generators_times, []

    def counted(*args):
        products.append(1)
        return kernel(*args)

    group = McLainGroup(chain(20), CountingMod(7))
    order = tuple(sorted(group.relation.pairs))
    g = dense_element(group, random.Random(62))
    monkeypatch.setattr(mclain.elements, "_generators_times", counted)
    form = ordered_factorization(g, order)
    swept, fmas[:] = len(fmas), []
    assert products == [1]
    assert form.product() == g
    assert swept - len(fmas) <= math.comb(20, 3)


def test_ordered_factorization_coerces_nothing():
    # The sweep and its self-check work on the payloads of g and on those
    # they solved, which were never outside the ring: nothing is validated
    # again, and only the returned form holds RingValues.
    calls = []

    class CountingMod(IntegersMod):
        def coerce(self, value):
            calls.append(value)
            return super().coerce(value)

    ring = CountingMod(7)
    group = McLainGroup(chain(6), ring)
    order = tuple(sorted(group.relation.pairs))
    rng = random.Random(61)
    g = group.element({pair: ring.sample(rng) for pair in order})
    calls.clear()
    form = ordered_factorization(g, order)
    assert calls == []
    assert form.product() == g


@pytest.mark.parametrize("m, message", SWEEP_FAULTS)
def test_level_sweep_checks_catch_a_corrupted_ring(m, message):
    group = McLainGroup(chain(m), NegationFreeMod(5))
    order = tuple(sorted(group.relation.pairs))
    g = group.element({(str(i), str(i + 1)): 1 for i in range(1, m)})
    with pytest.raises(InvariantError, match=message):
        ordered_factorization(g, order)


def test_peel_check_catches_a_corrupted_relation():
    # Swapped in after validation, {(a,a), (a,b)} puts the loop
    # (a,a) = (a,a)∘(a,a) in the bracket of its own support closure, so no
    # pair of the support is left to peel.
    group = McLainGroup(from_pairs([("a", "b")]), Z)
    object.__setattr__(group, "relation", from_pairs([("a", "a"), ("a", "b")]))
    with pytest.raises(InvariantError, match="support closure has no top level to peel"):
        word_factorization(group.element({("a", "a"): 1}))


def test_word_factorization_pass_bound_stops_a_kernel_that_keeps_zeros():
    # A row kernel that keeps the zeros its undos leave hands every peeled
    # pair back to the residual, so each pass would peel it again forever.
    # The run gets a few seconds: a missing bound fails here, not by a hang.
    script = """
import itertools
import mclain.factorization
from mclain import Integers, McLainGroup, random_pruned_order, word_factorization
print(__debug__)
honest = mclain.factorization._generators_times
def keeps_zeros(group, factors, x):
    factors = list(factors)
    out = honest(group, factors, x)
    for code, _ in itertools.chain(x.items(), factors):
        out.setdefault(code, group.ring._zero)
    return out
mclain.factorization._generators_times = keeps_zeros
delta = random_pruned_order(302, 6, 0.7)
group = McLainGroup(delta, Integers())
word_factorization(group.element({p: k + 1 for k, p in enumerate(sorted(delta.pairs))}))
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=5
    )
    assert proc.stdout == "False\n"
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "mclain.relations.InvariantError: word factorization ran past one pass per node"


def test_level_sweep_is_exact_over_a_relation_breaking_the_axioms():
    # Reading each level off the target needs only that the bracket series
    # of a closed order terminates, not the exchange axiom: over a relation
    # that breaks it, swapped in after validation, the sweep still converges
    # and neither of its checks fires.
    rng = random.Random(66)
    broken = from_pairs([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("1", "3")])
    assert not broken.axiom_report.valid
    for ring in ring_instances():
        group = McLainGroup(chain(4), ring)
        object.__setattr__(group, "relation", broken)
        order = sorted(broken.pairs)
        for _ in range(20):
            rng.shuffle(order)
            g = group.element({p: ring.sample(rng) for p in broken.pairs})
            assert ordered_factorization(g, tuple(order)).product() == g


def test_ordered_factorization_matches_recursive_oracle():
    rng = random.Random(65)
    compared = 0
    for name, delta in relation_zoo():
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(4):
                g = random_element(group, rng, max_terms=3)
                gamma = closure(g.support(), delta)
                if not 0 < len(gamma.pairs) <= 6:
                    continue
                order = sorted(gamma.pairs)
                rng.shuffle(order)
                order = tuple(order)
                form = ordered_factorization(g, order)
                assert form.coefficients == recursive_ordered_oracle(g, order), name
                compared += 1
    assert compared >= 60


def test_ordered_factorization_matches_the_oracle_off_numeric_order():
    # Labels i + 7 sort as "10" < "11" < ... < "8" < "9", and the isolated
    # nodes "1" and "85" sit among them, so node numbers, and the n of the
    # sweep's pair codes, differ from those of the unrelabelled relation.
    rng = random.Random(67)
    compared = 0
    for delta in (chain(5), ngon(5), random_pruned_order(3, 6, 0.6)):
        delta = from_pairs(
            [(str(int(i) + 7), str(int(j) + 7)) for i, j in delta.pairs], ["1", "85"]
        )
        assert sorted(delta.nodes, key=int) != sorted(delta.nodes)
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for _ in range(12):
                seeds = rng.sample(sorted(delta.pairs), rng.randint(2, 4))
                gamma = closure(delta.subset(seeds), delta)
                if not 2 < len(gamma.pairs) <= 6 or gamma.pairs == delta.pairs:
                    continue
                order = sorted(gamma.pairs)
                rng.shuffle(order)
                g = group.element({p: ring.sample(rng) for p in order})
                form = ordered_factorization(g, tuple(order))
                assert form.coefficients == recursive_ordered_oracle(g, order)
                compared += 1
    assert compared >= 60


def test_the_sweep_makes_no_relation(monkeypatch):
    # The sweep reads the rounds of the bracket descent as pair codes; it
    # builds no series term, no relation per level, no support and no
    # relation for the order, whose stray pairs one set difference refuses.
    group = McLainGroup(chain(8), IntegersMod(7))
    order = tuple(sorted(group.relation.pairs))
    g = group.element({pair: 1 + n % 6 for n, pair in enumerate(order)})
    made = []
    within = Relation._within.__func__

    def counting(cls, nodes, pairs):
        made.append(pairs)
        return within(cls, nodes, pairs)

    monkeypatch.setattr(Relation, "_within", classmethod(counting))
    assert ordered_factorization(g, order).product() == g
    assert made == []


def test_the_factorization_layer_crosses_no_edge_it_holds(monkeypatch):
    # Values enter through group.element and labels through gamma; from there
    # the coset lift, the support closure and the node bound of the power
    # loop work on codes and payloads, and the n-gon demonstration multiplies
    # its unit orderings as payload codes: only its 20 sampled forms coerce.
    calls = {"coerce": 0, "relation": 0, "encode": 0}

    class CountingMod(IntegersMod):
        def coerce(self, value):
            calls["coerce"] += 1
            return super().coerce(value)

    group = McLainGroup(chain(6), CountingMod(7))
    far = (p for p in group.relation.pairs if int(p[1]) - int(p[0]) >= 3)
    gamma = group.relation.subset(far)  # normal in a chain
    g = dense_element(group, random.Random(1202))
    within = classmethod(counting(calls, "relation", Relation._within.__func__))
    monkeypatch.setattr(Relation, "_within", within)
    monkeypatch.setattr(Relation, "_encode", counting(calls, "encode", Relation._encode))

    def taken(call):
        before = dict(calls)
        result = call()
        return result, {name: calls[name] - before[name] for name in calls}

    representative, used = taken(lambda: coset_representative(g, gamma))
    assert used["coerce"] == 0 and used["relation"] == 1
    support, used = taken(lambda: minimal_closed_support(g))
    assert used["encode"] == 0 and support == closure(g.support(), group.relation)
    index, used = taken(g.nilpotency_index)
    assert used["relation"] == 0 and index == 6
    report, used = taken(lambda: demonstrate_ngon_obstruction(5, CountingMod(2)))
    assert used["coerce"] <= 114 and report.orderings_checked == 120
    monkeypatch.undo()
    assert quotient_project(representative, gamma) == quotient_project(g, gamma)
    assert (representative.inverse() * g).support().pairs <= gamma.pairs


def test_ordered_factorization_matches_brute_force():
    rng = random.Random(66)
    group = McLainGroup(chain(3), IntegersMod(2))
    order = (("2", "3"), ("1", "2"), ("1", "3"))
    for _ in range(10):
        g = random_element(group, rng)
        form = ordered_factorization(g, order)
        assert brute_force_matches(g, order) == [form.coefficients]
    group = McLainGroup(ngon(4), IntegersMod(3))
    order = tuple(ngon_diagonals(4))
    for _ in range(5):
        g = group.element({p: group.ring.sample(rng) for p in order})
        form = ordered_factorization(g, order)
        assert brute_force_matches(g, order) == [form.coefficients]


# ---------------------------------------------------------------------------
# greedy peeling succeeds exactly when maximal pairs keep existing


def test_greedy_peeling_reproduces_chain_inputs():
    rng = random.Random(67)
    group = McLainGroup(chain(4), IntegersMod(5))
    for _ in range(20):
        g = random_element(group, rng)
        steps = greedy_peel_factorization(g)
        assert steps is not None
        rebuilt = group.identity()
        for (i, j), value in steps:
            rebuilt = rebuilt * group.generator(i, j, value)
        assert rebuilt == g


def test_greedy_peeling_gets_stuck_on_the_ngon_edge_sum():
    group = McLainGroup(ngon(4), IntegersMod(2))
    target = group.element({e: 1 for e in ngon_edges(4)})
    assert greedy_peel_factorization(target) is None
    # yet the same element does factor once both step sizes may be used
    word = word_factorization(target)
    assert group.eval_word(word) == target


# ---------------------------------------------------------------------------
# the n-gon obstruction


def test_ngon_demonstration_n4():
    report = demonstrate_ngon_obstruction(4)
    assert report.n == 4
    assert report.ring == IntegersMod(2)
    assert report.orderings_checked == 24
    assert report.successes == 0
    assert report.every_failure_has_step_two_term
    assert report.unit_coefficients_forced
    assert report.mixed_word_matches
    assert report.mixed_word_uses_step_two
    assert report.summary() == "24 orderings checked, 0 succeed"


def test_ngon_demonstration_n4_over_other_rings():
    for ring in [Integers(), IntegersMod(3)]:
        report = demonstrate_ngon_obstruction(4, ring)
        assert report.orderings_checked == 24
        assert report.successes == 0
        assert report.unit_coefficients_forced
        assert report.mixed_word_matches


def test_ngon_demonstration_n5():
    report = demonstrate_ngon_obstruction(5)
    assert report.orderings_checked == 120
    assert report.successes == 0
    assert report.every_failure_has_step_two_term


def test_ngon_demonstration_n6_is_the_largest_allowed():
    assert demonstrate_ngon_obstruction(6).summary() == "720 orderings checked, 0 succeed"


def test_ngon_demonstration_range():
    with pytest.raises(ValueError):
        demonstrate_ngon_obstruction(3)
    with pytest.raises(ValueError):
        demonstrate_ngon_obstruction(7)


def test_ngon_mixed_word_evaluates_to_the_edge_sum():
    report = demonstrate_ngon_obstruction(4)
    group = McLainGroup(ngon(4), report.ring)
    target = group.element({e: 1 for e in ngon_edges(4)})
    assert group.eval_word(report.mixed_word) == target
    used = {(t.source, t.target) for t in report.mixed_word.tokens}
    assert used & set(ngon_diagonals(4))
