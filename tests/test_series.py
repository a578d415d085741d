"""Structure theory: central series, centers, quotients, coset representatives."""

from __future__ import annotations

import random
import subprocess
import sys

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
import mclain.series
from mclain import (
    AxiomReport,
    Integers,
    IntegersMod,
    McLainGroup,
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
    with pytest.raises(AssertionError, match="stalled before exhausting"):
        upper_central_series(delta)


def test_upper_central_series_stall_check_survives_python_O():
    script = """
from mclain import AxiomReport, from_pairs, upper_central_series
print(__debug__)
nodes = ("1", "2", "3")
delta = from_pairs([(i, j) for i in nodes for j in nodes if i != j])
object.__setattr__(delta, "axiom_report", AxiomReport(True, ()))
upper_central_series(delta)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.stdout == "False\n"
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == (
        "AssertionError: upper central series stalled before exhausting the relation"
    )


# (a,a) = (a,a)∘(a,a) decomposes a loop into itself, so past validation the
# bracket series of this relation keeps (a,a) and (a,b) at every level.
LOOPED = [("a", "a"), ("a", "b")]


def test_gamma_series_termination_check_catches_a_corrupted_relation():
    delta = _forced_valid(LOOPED)
    with pytest.raises(AssertionError, match="bracket series failed to terminate"):
        gamma_series(delta, delta)


def test_gamma_series_termination_check_survives_python_O():
    script = f"""
from mclain import AxiomReport, from_pairs, gamma_series
print(__debug__)
delta = from_pairs({LOOPED!r})
object.__setattr__(delta, "axiom_report", AxiomReport(True, ()))
gamma_series(delta, delta)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.stdout == "False\n"
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "AssertionError: bracket series failed to terminate"


def test_upper_central_series_normality_check_catches_a_wrong_step(monkeypatch):
    # No relation reaches this check: a pair that is a factor of no composite
    # left cannot compose, within the relation, into a pair still left. A
    # faulty descent, adjoining (1,2) alone first, must still trip it.
    def wrong(*args):
        return [[(0, 1)], [(0, 2), (1, 2)]]

    monkeypatch.setattr(mclain.series, "_shed", wrong)
    with pytest.raises(
        AssertionError, match="upper central series term failed the normality check"
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
    """ordered_factorization with the first coefficient of its form plus one."""

    def factor(g, order):
        form = honest(g, order)
        coefficients = dict(form.coefficients)
        coefficients[form.order[0]] += g.group.ring.one
        return mclain.factorization.OrderedForm(form.group, form.order, coefficients)

    return factor


def test_coset_membership_check_catches_a_wrong_factorization(monkeypatch):
    # No correct factorization reaches this check: the representative is the
    # ordered product of the projection's own coefficients, so it lies in
    # the coset of g. A form off by one at a pair outside gamma must trip it.
    monkeypatch.setattr(
        mclain.factorization,
        "ordered_factorization",
        _off_by_one(mclain.factorization.ordered_factorization),
    )
    group = McLainGroup(chain(3), Z)
    gamma = group.relation.subset([("1", "3")])
    g = group.element({("1", "2"): 2, ("2", "3"): 3, ("1", "3"): 5})
    with pytest.raises(AssertionError, match="failed the membership check"):
        coset_representative(g, gamma)


def test_coset_membership_check_survives_python_O():
    script = """
import mclain.factorization
from mclain import Integers, McLainGroup, chain, coset_representative
print(__debug__)
honest = mclain.factorization.ordered_factorization
def factor(g, order):
    form = honest(g, order)
    coefficients = dict(form.coefficients)
    coefficients[form.order[0]] += g.group.ring.one
    return mclain.factorization.OrderedForm(form.group, form.order, coefficients)
mclain.factorization.ordered_factorization = factor
group = McLainGroup(chain(3), Integers())
gamma = group.relation.subset([("1", "3")])
coset_representative(group.element({("1", "2"): 2, ("2", "3"): 3}), gamma)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.stdout == "False\n"
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "AssertionError: coset representative failed the membership check"


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


# ---------------------------------------------------------------------------
# the structure theorems at group level


@pytest.mark.parametrize(
    "delta, n",
    [(chain(3), 3), (chain(4), 2), (ngon(4), 2), (random_pruned_order(203, 5, 0.5), 2)],
    ids=["chain3-Z3", "chain4-Z2", "ngon4-Z2", "pruned203-Z2"],
)
def test_series_and_quotients_match_the_group_level_oracle(delta, n):
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

    # Quotients by up to six nonempty proper normal subsets, each the normal
    # closure of one pair, found without the relation calculus: deletion
    # respects the product with every generator, is onto with a kernel of
    # order |R|^|gamma|, and the coset representatives are one per coset.
    closures = {naive_normal_closure(frozenset({p}), delta.pairs) for p in delta.pairs}
    normals = sorted((c for c in closures if c != delta.pairs), key=sorted)[:6]
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
