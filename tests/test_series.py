"""Structure theory: central series, centers, quotients, coset representatives."""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from helpers import random_element, relation_zoo, ring_instances
from oracles import (
    all_elements,
    by_first,
    by_second,
    group_lower_central_series,
    group_upper_central_series,
    naive_normal_closure,
    unit_generators,
)
import mclain.factorization
import mclain.relations
import mclain.series
from mclain import (
    AxiomReport,
    Integers,
    IntegersMod,
    InvariantError,
    McLainGroup,
    Relation,
    SubsetChain,
    center_support,
    chain,
    coset_representative,
    difference,
    format_chain_lines,
    from_pairs,
    gamma_series,
    is_normal,
    isolated,
    lower_central_series,
    ngon,
    ngon_diagonals,
    nilpotency_class,
    normal_closure,
    quotient_project,
    random_pruned_order,
    upper_central_series,
)

Z = Integers()


# ---------------------------------------------------------------------------
# descending series and factor reports


def test_lower_central_series_chain4():
    series, reports = lower_central_series(chain(4), Z)
    assert [len(t.pairs) for t in series.terms] == [6, 3, 1, 0]
    assert [r.rank for r in reports] == [3, 2, 1]
    assert [r.level for r in reports] == [1, 2, 3]
    assert sorted(reports[0].support.pairs) == [("1", "2"), ("2", "3"), ("3", "4")]
    assert sorted(reports[1].support.pairs) == [("1", "3"), ("2", "4")]
    assert sorted(reports[2].support.pairs) == [("1", "4")]
    assert all(r.ring == Z for r in reports)
    assert nilpotency_class(series) == 3


def test_lower_central_series_ngon4():
    series, reports = lower_central_series(ngon(4), IntegersMod(2))
    assert [r.rank for r in reports] == [4, 4]
    assert nilpotency_class(series) == 2


def test_lower_central_series_trivial_cases():
    series, reports = lower_central_series(chain(1), Z)
    assert nilpotency_class(series) == 0
    assert reports == []
    series, reports = lower_central_series(from_pairs([("1", "2")]), Z)
    assert nilpotency_class(series) == 1
    assert [r.rank for r in reports] == [1]


def test_series_of_the_empty_relation():
    empty = from_pairs([])
    series, reports = lower_central_series(empty, Z)
    assert [term.pairs for term in series.terms] == [frozenset()]
    assert reports == []
    assert format_chain_lines(series, reports) == ["gamma 1: {}"]
    upper = upper_central_series(empty)
    assert [term.pairs for term in upper.terms] == [frozenset()]
    assert format_chain_lines(upper) == ["zeta 0: {}"]


def test_chain_groups_have_class_one_less_than_length():
    for m in range(2, 7):
        series, _ = lower_central_series(chain(m), Z)
        assert nilpotency_class(series) == m - 1
        upper = upper_central_series(chain(m))
        assert len(upper.terms) == m


def test_level_commutators_land_one_level_deeper():
    for name, delta in relation_zoo():
        if not delta.pairs:
            continue
        group = McLainGroup(delta, IntegersMod(3))
        series = gamma_series(delta, delta)
        for current, deeper in zip(series.terms, series.terms[1:]):
            for p in sorted(current.pairs)[:6]:
                for q in sorted(delta.pairs)[:6]:
                    got = group.generator(*p, 1).commutator(group.generator(*q, 1))
                    assert got.support().pairs <= deeper.pairs, (name, p, q)


def test_gamma_terms_are_normal():
    for name, delta in relation_zoo():
        series = gamma_series(delta, delta)
        for term in series.terms:
            assert is_normal(term, delta), name


# ---------------------------------------------------------------------------
# the center


def test_center_support_examples():
    assert center_support(chain(3)).pairs == frozenset({("1", "3")})
    assert center_support(ngon(4)).pairs == frozenset(ngon_diagonals(4))
    assert center_support(from_pairs([("1", "2"), ("2", "1")])).pairs == frozenset(
        {("1", "2"), ("2", "1")}
    )


def test_center_support_demands_validity():
    with pytest.raises(ValueError):
        center_support(from_pairs([("1", "1")]))


def test_central_generators_commute_with_everything():
    rng = random.Random(51)
    for name, delta in relation_zoo():
        if not delta.pairs:
            continue
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            for pair in sorted(center_support(delta).pairs):
                z = group.generator(*pair, ring.sample(rng))
                for _ in range(5):
                    g = random_element(group, rng)
                    assert z.commutator(g) == group.identity(), name
                    assert g.commutator(z) == group.identity(), name


def test_noncentral_pairs_have_a_failing_witness():
    for name, delta in relation_zoo():
        group = McLainGroup(delta, Z)
        central = center_support(delta).pairs
        after, before = by_first(delta), by_second(delta)
        for i, j in sorted(delta.pairs - central):
            probe = group.generator(i, j, 1)
            witnesses = [
                group.generator(j, k, 1)
                for _, k in after.get(j, ())
                if (i, k) in delta.pairs
            ] + [
                group.generator(l, i, 1)
                for l, _ in before.get(i, ())
                if (l, j) in delta.pairs
            ]
            assert witnesses, (name, i, j)
            assert any(
                probe.commutator(w) != group.identity() for w in witnesses
            ), (name, i, j)


def test_deepest_gamma_level_is_central():
    for name, delta in relation_zoo():
        if not delta.pairs:
            continue
        series = gamma_series(delta, delta)
        deepest = [t for t in series.terms if t.pairs][-1]
        assert deepest.pairs <= center_support(delta).pairs, name


# ---------------------------------------------------------------------------
# ascending series


def test_upper_central_series_chain3():
    series = upper_central_series(chain(3))
    assert series.direction == "ascending"
    assert [sorted(t.pairs) for t in series.terms] == [
        [],
        [("1", "3")],
        [("1", "2"), ("1", "3"), ("2", "3")],
    ]


def test_upper_central_series_chain4():
    series = upper_central_series(chain(4))
    assert [len(t.pairs) for t in series.terms] == [0, 1, 3, 6]
    assert sorted(series.terms[1].pairs) == [("1", "4")]
    assert sorted(series.terms[2].pairs) == [("1", "3"), ("1", "4"), ("2", "4")]


def test_upper_central_series_reaches_the_whole_relation():
    for name, delta in relation_zoo():
        series = upper_central_series(delta)
        assert series.terms[0].pairs == frozenset()
        assert series.terms[-1].pairs == delta.pairs
        for earlier, later in zip(series.terms, series.terms[1:]):
            assert earlier.pairs < later.pairs, name
            assert is_normal(later, delta), name
            # each increment is the center support of what remains
            remainder = difference(delta, earlier)
            assert later.pairs - earlier.pairs == isolated(remainder).pairs, name


def _forced_valid(pairs):
    """A relation whose cached axiom report claims validity it lacks."""
    delta = from_pairs(pairs)
    assert not delta.axiom_report.valid
    object.__setattr__(delta, "axiom_report", AxiomReport(True, ()))
    return delta


def test_upper_central_series_stall_check_catches_a_corrupted_relation():
    # On the complete digraph on three nodes every pair composes with
    # another, so no pair is ever isolated.
    nodes = ("1", "2", "3")
    delta = _forced_valid([(i, j) for i in nodes for j in nodes if i != j])
    message = "upper central series stalled before exhausting the relation"
    with pytest.raises(InvariantError, match=message):
        upper_central_series(delta)


# (a,a) = (a,a)∘(a,a) decomposes a loop into itself, so past validation the
# bracket series of this relation keeps (a,a) and (a,b) at every level.
LOOPED = [("a", "a"), ("a", "b")]


def test_gamma_series_termination_check_catches_a_corrupted_relation():
    delta = _forced_valid(LOOPED)
    with pytest.raises(InvariantError, match="bracket series failed to terminate"):
        gamma_series(delta, delta)


def test_upper_central_series_normality_check_catches_a_wrong_step(monkeypatch):
    # No relation reaches this check: a pair that is a factor of no composite
    # left cannot compose, within the relation, into a pair still left. A
    # faulty descent, adjoining (1,2) alone first, must still trip it.
    def wrong(*args):
        return [[(0, 1)], [(0, 2), (1, 2)]]

    monkeypatch.setattr(mclain.series, "_upper_rounds", wrong)
    with pytest.raises(
        InvariantError, match="upper central series term failed the normality check"
    ):
        upper_central_series(chain(3))


def test_last_nonempty_gamma_sits_inside_the_first_zeta():
    for name, delta in relation_zoo():
        if not delta.pairs:
            continue
        series = gamma_series(delta, delta)
        deepest = [t for t in series.terms if t.pairs][-1]
        upper = upper_central_series(delta)
        assert deepest.pairs <= upper.terms[1].pairs, name


# ---------------------------------------------------------------------------
# quotients


def test_quotient_project_deletes_exactly_gamma():
    group = McLainGroup(chain(3), Z)
    g = group.element({("1", "2"): 2, ("1", "3"): 3, ("2", "3"): 4})
    gamma = group.relation.subset([("1", "3")])
    image = quotient_project(g, gamma)
    assert image.group.relation.pairs == frozenset({("1", "2"), ("2", "3")})
    assert image.coefficients() == {
        ("1", "2"): Z.from_int(2),
        ("2", "3"): Z.from_int(4),
    }


def test_quotient_project_demands_normal_gamma():
    group = McLainGroup(chain(3), Z)
    with pytest.raises(ValueError, match="normal"):
        quotient_project(group.identity(), group.relation.subset([("1", "2")]))


def test_quotient_project_is_a_homomorphism():
    rng = random.Random(52)
    checked = 0
    for name, delta in relation_zoo():
        if not delta.pairs:
            continue
        pairs = sorted(delta.pairs)
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            gamma = normal_closure(
                delta.subset([p for p in pairs if rng.random() < 0.4]), delta
            )
            for _ in range(6):
                g = random_element(group, rng)
                h = random_element(group, rng)
                lhs = quotient_project(g * h, gamma)
                rhs = quotient_project(g, gamma) * quotient_project(h, gamma)
                assert lhs == rhs, name
                checked += 1
    assert checked >= 300


def test_quotient_kernel_is_the_subgroup_over_gamma():
    rng = random.Random(53)
    group = McLainGroup(chain(4), IntegersMod(5))
    series = gamma_series(group.relation, group.relation)
    gamma = series.terms[1]
    quotient = McLainGroup(
        group.relation.subset(group.relation.pairs - gamma.pairs), group.ring
    )
    for _ in range(100):
        g = random_element(group, rng)
        image = quotient_project(g, gamma)
        in_kernel = image == quotient.identity()
        assert in_kernel == (g.support().pairs <= gamma.pairs)


def test_each_quotient_is_tested_and_scanned_once(monkeypatch):
    # Delta keeps its quotient by gamma: projections and lifts after the
    # first find it there, with its index and its axiom report.
    tests, scans = [], []
    is_normal, scan = mclain.relations.is_normal, Relation.axiom_report.func

    def counted_is_normal(sub, delta):
        tests.append(sub.pairs)
        return is_normal(sub, delta)

    def counted_scan(self):
        scans.append(self.pairs)
        return scan(self)

    report = functools.cached_property(counted_scan)
    report.__set_name__(Relation, "axiom_report")
    monkeypatch.setattr(mclain.relations, "is_normal", counted_is_normal)
    monkeypatch.setattr(Relation, "axiom_report", report)
    delta = chain(6)
    gamma = delta.subset(p for p in delta.pairs if int(p[1]) - int(p[0]) >= 3)
    group = McLainGroup(delta, Z)
    g = group.element({p: 1 + k % 5 for k, p in enumerate(sorted(delta.pairs))})
    first = quotient_project(g, gamma)
    representative = coset_representative(g, gamma)
    again = quotient_project(g, gamma)
    assert tests == [gamma.pairs]
    assert scans.count(delta.pairs - gamma.pairs) == 1
    assert first == again == quotient_project(representative, gamma)


def test_a_subset_that_is_not_normal_is_refused_on_every_call():
    delta = chain(4)
    difference(delta, delta.subset([("1", "4")]))
    not_normal = delta.subset([("1", "2")])
    for _ in range(2):
        with pytest.raises(ValueError, match="can only remove a normal subset"):
            difference(delta, not_normal)


def test_each_gamma_has_its_own_quotient():
    delta = chain(5)
    _, second, third = gamma_series(delta, delta).terms[:3]
    quotients = [difference(delta, second), difference(delta, third)]
    assert quotients == [
        Relation(delta.nodes, delta.pairs - second.pairs),
        Relation(delta.nodes, delta.pairs - third.pairs),
    ]
    assert quotients[0] != quotients[1]
    assert difference(delta, second) is quotients[0]


# ---------------------------------------------------------------------------
# coset representatives


def test_coset_representative_frozen_chain3():
    group = McLainGroup(chain(3), Z)
    gamma = group.relation.subset([("1", "3")])
    g = group.element({("1", "2"): 2, ("2", "3"): 3, ("1", "3"): 5})
    rep = coset_representative(g, gamma)
    assert str(rep) == "1 + 2*e(1,2) + 6*e(1,3) + 3*e(2,3)"
    leftover = rep.inverse() * g
    assert leftover.support().pairs <= gamma.pairs


def test_coset_representative_frozen_ngon4():
    group = McLainGroup(ngon(4), Z)
    gamma = group.relation.subset(ngon_diagonals(4))
    g = group.element({("0", "1"): 1, ("1", "2"): 1, ("0", "2"): 1})
    rep = coset_representative(g, gamma)
    assert rep == g


def test_coset_representative_of_subgroup_members_is_trivial():
    group = McLainGroup(chain(3), Z)
    gamma = group.relation.subset([("1", "3")])
    assert coset_representative(group.identity(), gamma) == group.identity()
    inside = group.generator("1", "3", 9)
    assert coset_representative(inside, gamma) == group.identity()


def test_coset_representative_depends_only_on_the_coset():
    rng = random.Random(54)
    scenarios = [
        (chain(4), gamma_series(chain(4), chain(4)).terms[1]),
        (ngon(4), ngon(4).subset(ngon_diagonals(4))),
    ]
    for delta, gamma in scenarios:
        for ring in ring_instances():
            group = McLainGroup(delta, ring)
            gamma_pairs = sorted(gamma.pairs)
            for _ in range(15):
                g = random_element(group, rng)
                shift = group.element(
                    {p: ring.sample(rng) for p in gamma_pairs if rng.random() < 0.7}
                )
                assert coset_representative(g, gamma) == coset_representative(
                    g * shift, gamma
                )
                leftover = coset_representative(g, gamma).inverse() * g
                assert leftover.support().pairs <= gamma.pairs


def _off_by_one(honest):
    """The ordered sweep with the first coefficient it solves plus one."""

    def sweep(group, target, codes, rounds):
        found = honest(group, target, codes, rounds)
        ring, first = group.ring, codes[0]
        found[first] = ring._add(found.get(first, ring._zero), ring.one.payload)
        return found

    return sweep


def test_coset_membership_check_catches_a_wrong_factorization(monkeypatch):
    # No correct factorization reaches this check: the representative is the
    # ordered product of the projection's own coefficients, so it lies in
    # the coset of g. A sweep off by one at a pair outside gamma must trip it.
    monkeypatch.setattr(
        mclain.factorization,
        "_ordered_sweep",
        _off_by_one(mclain.factorization._ordered_sweep),
    )
    group = McLainGroup(chain(3), Z)
    gamma = group.relation.subset([("1", "3")])
    g = group.element({("1", "2"): 2, ("2", "3"): 3, ("1", "3"): 5})
    message = "coset representative failed the membership check"
    with pytest.raises(InvariantError, match=message):
        coset_representative(g, gamma)


# ---------------------------------------------------------------------------
# report formatting


def test_format_chain_lines_descending():
    series, reports = lower_central_series(chain(3), Z)
    assert format_chain_lines(series, reports) == [
        "gamma 1: {(1,2),(1,3),(2,3)} rank 2",
        "gamma 2: {(1,3)} rank 1",
        "gamma 3: {}",
    ]


def test_format_chain_lines_ascending():
    series = upper_central_series(chain(3))
    assert format_chain_lines(series) == [
        "zeta 0: {}",
        "zeta 1: {(1,3)}",
        "zeta 2: {(1,2),(1,3),(2,3)}",
    ]


def per_term_lines(chain_, reports=None):
    """The report lines with each term's pairs sorted and formatted alone."""
    label, first = ("gamma", 1) if chain_.direction == "descending" else ("zeta", 0)
    ranks = {report.level: report.rank for report in reports or []}
    lines = []
    for level, term in enumerate(chain_.terms, first):
        line = f"{label} {level}: {{{','.join(f'({i},{j})' for i, j in sorted(term.pairs))}}}"
        if level in ranks and chain_.direction == "descending":
            line += f" rank {ranks[level]}"
        lines.append(line)
    return lines


def test_chain_lines_read_as_if_each_term_were_sorted_alone():
    # format_chain_lines sorts the union of the terms once; labels sort as
    # text ("10" < "9"), and a hand-built chain need not be nested
    cases = []
    for delta in (chain(12), ngon(9), *(random_pruned_order(s, 10, 0.4) for s in range(4))):
        series, reports = lower_central_series(delta, Z)
        closed = normal_closure(delta.subset(sorted(delta.pairs)[:2]), delta)
        cases += [(series, reports), (series, None), (upper_central_series(delta), None)]
        cases.append((gamma_series(closed, delta), None))
    delta = chain(11)
    terms = tuple(
        delta.subset(pairs)
        for pairs in ([("1", "2"), ("9", "11")], [("10", "11"), ("1", "2"), ("3", "4")], [],
                      [("1", "10")])
    )
    cases += [(SubsetChain(direction, terms), None) for direction in ("descending", "ascending")]
    for chain_, reports in cases:
        assert format_chain_lines(chain_, reports) == per_term_lines(chain_, reports)


# ---------------------------------------------------------------------------
# the structure theorems at group level


@pytest.mark.parametrize(
    "delta, n, every",
    [
        (chain(3), 3, True),
        (chain(4), 2, True),
        (ngon(4), 2, False),
        (random_pruned_order(203, 5, 0.5), 2, True),
    ],
    ids=["chain3-Z3", "chain4-Z2", "ngon4-Z2", "pruned203-Z2"],
)
def test_series_and_quotients_match_the_group_level_oracle(delta, n, every):
    # The oracle computes both central series of the enumerated group from
    # their definitions, by products and commutators alone; the library
    # computes them on the relation. Each group term must be exactly the
    # elements supported on the matching relation term, and the factor
    # orders must be the |R|^rank of the reports.
    ring = IntegersMod(n)
    group = McLainGroup(delta, ring)
    everything, xs = all_elements(group), unit_generators(group)

    def supported_on(term):
        return frozenset(g for g in everything if set(g.coefficients()) <= term.pairs)

    series, reports = lower_central_series(delta, ring)
    lower = group_lower_central_series(group)
    assert lower == [supported_on(term) for term in series.terms]
    assert [len(lower[r.level - 1]) // len(lower[r.level]) for r in reports] == [
        n**r.rank for r in reports
    ]
    upper = group_upper_central_series(group)
    assert upper == [supported_on(term) for term in upper_central_series(delta).terms]

    # Quotients by every nonempty proper normal subset, the normal closures of
    # all proper subsets; for ngon(4), whose 45 take seconds, by the first six
    # normal closures of one pair. They are found without the relation
    # calculus: deletion respects the product with every generator, is onto
    # with a kernel of order |R|^|gamma|, and the coset representatives are
    # one per coset.
    sizes = range(1, len(delta.pairs)) if every else [1]
    seeds = (
        frozenset(c) for k in sizes for c in itertools.combinations(sorted(delta.pairs), k)
    )
    closures = {naive_normal_closure(seed, delta.pairs) for seed in seeds}
    normals = sorted((c for c in closures if c != delta.pairs), key=sorted)
    normals = normals if every else normals[:6]
    assert normals
    for pairs in normals:
        gamma = delta.subset(pairs)
        projected = {g: quotient_project(g, gamma) for g in everything}
        for g in everything:
            assert all(projected[g * x] == projected[g] * projected[x] for x in xs)
        images = set(projected.values())
        assert len(images) == n ** len(delta.pairs - pairs)
        assert sum(1 for h in projected.values() if h.is_identity()) == n ** len(pairs)
        representatives = {g: coset_representative(g, gamma) for g in everything}
        assert len(set(representatives.values())) == len(images)
        assert all(projected[r] == projected[g] for g, r in representatives.items())
