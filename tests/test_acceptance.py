"""Acceptance suite: eight gate criteria, each printing one verdict line.

Every check is exact; there are no numeric tolerances anywhere. Each
criterion also carries a wall-clock budget, measured per criterion body.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines on a passing run; on a failure pytest reports the criterion test
as FAILED along with its verdict line.
"""

from __future__ import annotations

import random
import time

from helpers import (
    acceptance_relations,
    random_element,
    relation_zoo,
    ring_instances,
)
from oracles import (
    by_first,
    by_second,
    element_to_matrix,
    mat_comm,
    mat_inv,
    mat_mul,
    matrix_to_element,
    recursive_ordered_oracle,
)
from mclain import (
    Integers,
    IntegersMod,
    McLainGroup,
    center_support,
    chain,
    closure,
    coset_representative,
    demonstrate_ngon_obstruction,
    difference,
    gamma_series,
    is_normal,
    lower_central_series,
    ngon,
    ngon_diagonals,
    ngon_edges,
    nilpotency_class,
    normal_closure,
    ordered_factorization,
    quotient_project,
    random_pruned_order,
    random_relation,
    upper_central_series,
)


def _run(number: int, name: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number} ({name}): {verdict} "
        f"[{elapsed:.2f}s of {budget:.0f}s budget, exact]"
    )
    assert ok, f"criterion {number} blew its budget: {elapsed:.2f}s >= {budget}s"


# ---------------------------------------------------------------------------
# 1. the three generator relations hold across relations, rings, coefficients


def _body_generator_relations() -> None:
    relations = acceptance_relations()
    assert len(relations) >= 20
    assert all(0 < len(rel.pairs) <= 10 for _, rel in relations)
    rings = ring_instances()
    counts = {"add": 0, "composite": 0, "missing": 0, "disjoint": 0}
    for index, (name, delta) in enumerate(relations):
        pairs = sorted(delta.pairs)
        composable = [(p, q) for p in pairs for q in pairs if p[1] == q[0]]
        disjoint = [
            (p, q) for p in pairs for q in pairs if p[1] != q[0] and p[0] != q[1]
        ]
        for ring in rings:
            group = McLainGroup(delta, ring)
            rng = random.Random(9000 + index)
            for _ in range(200):
                a = ring.sample(rng)
                b = ring.sample(rng)
                which = rng.randrange(3)
                if which == 1 and composable:
                    (i, j), (_, l) = rng.choice(composable)
                    got = group.generator(i, j, a).commutator(
                        group.generator(j, l, b)
                    )
                    if (i, l) in delta.pairs:
                        assert got == group.generator(i, l, a * b), name
                        counts["composite"] += 1
                    else:
                        assert got == group.identity(), name
                        counts["missing"] += 1
                elif which == 2 and disjoint:
                    (i, j), (k, l) = rng.choice(disjoint)
                    got = group.generator(i, j, a).commutator(
                        group.generator(k, l, b)
                    )
                    assert got == group.identity(), name
                    counts["disjoint"] += 1
                else:
                    i, j = rng.choice(pairs)
                    got = group.generator(i, j, a) * group.generator(i, j, b)
                    assert got == group.generator(i, j, a + b), name
                    counts["add"] += 1
    assert all(count > 1000 for count in counts.values()), counts


def test_acceptance_1_generator_relations():
    _run(1, "generator relations", 10.0, _body_generator_relations)


# ---------------------------------------------------------------------------
# 2. agreement with a dense unitriangular matrix oracle on chain relations


def _body_dense_matrix_oracle() -> None:
    for m in range(2, 6):
        delta = chain(m)
        for p in (2, 3, 5):
            ring = IntegersMod(p)
            group = McLainGroup(delta, ring)
            rng = random.Random(1000 * m + p)
            pairs = sorted(delta.pairs)
            for _ in range(1000):
                g = group.element(
                    {pair: ring.from_int(rng.randrange(p)) for pair in pairs}
                )
                h = group.element(
                    {pair: ring.from_int(rng.randrange(p)) for pair in pairs}
                )
                a = element_to_matrix(g, m)
                b = element_to_matrix(h, m)
                assert element_to_matrix(g * h, m) == mat_mul(a, b, p)
                assert element_to_matrix(g.inverse(), m) == mat_inv(a, p)
                assert element_to_matrix(g.commutator(h), m) == mat_comm(a, b, p)
                assert matrix_to_element(group, a) == g
            series, reports = lower_central_series(delta, ring)
            assert [r.rank for r in reports] == [m - k for k in range(1, m)]
            assert nilpotency_class(series) == m - 1
            assert len(upper_central_series(delta).terms) == m


def test_acceptance_2_dense_matrix_oracle():
    _run(2, "dense matrix oracle", 30.0, _body_dense_matrix_oracle)


# ---------------------------------------------------------------------------
# 3. quotient projection is a homomorphism with the predicted kernel,
#    and coset representatives land in the right coset


def _body_quotient_homomorphism() -> None:
    rng = random.Random(777)
    scenarios = [
        (chain(4), gamma_series(chain(4), chain(4)).terms[1], Integers()),
        (ngon(4), ngon(4).subset(ngon_diagonals(4)), IntegersMod(2)),
    ]
    added = 0
    seed = 0
    while added < 10:
        seed += 1
        assert seed < 200
        delta = random_pruned_order(seed=300 + seed, node_count=6, density=0.45)
        pairs = sorted(delta.pairs)
        if not pairs:
            continue
        picker = random.Random(400 + seed)
        gamma = normal_closure(
            delta.subset([p for p in pairs if picker.random() < 0.35]), delta
        )
        if not gamma.pairs or gamma.pairs == delta.pairs:
            continue
        scenarios.append((delta, gamma, ring_instances()[added % 3]))
        added += 1
    assert len(scenarios) == 12
    for delta, gamma, ring in scenarios:
        group = McLainGroup(delta, ring)
        quotient_group = McLainGroup(difference(delta, gamma), ring)
        gamma_pairs = sorted(gamma.pairs)
        for _ in range(500):
            g = random_element(group, rng)
            h = random_element(group, rng)
            lhs = quotient_project(g * h, gamma)
            rhs = quotient_project(g, gamma) * quotient_project(h, gamma)
            assert lhs == rhs
        for _ in range(100):
            g = random_element(group, rng)
            trivial = quotient_project(g, gamma) == quotient_group.identity()
            assert trivial == (g.support().pairs <= gamma.pairs)
            inside = group.element(
                {p: ring.sample(rng) for p in gamma_pairs if rng.random() < 0.6}
            )
            assert quotient_project(inside, gamma) == quotient_group.identity()
        for _ in range(50):
            g = random_element(group, rng)
            rep = coset_representative(g, gamma)
            assert (rep.inverse() * g).support().pairs <= gamma.pairs
            shift = group.element(
                {p: ring.sample(rng) for p in gamma_pairs if rng.random() < 0.5}
            )
            assert coset_representative(g * shift, gamma) == rep


def test_acceptance_3_quotient_homomorphism():
    _run(3, "quotient homomorphism", 10.0, _body_quotient_homomorphism)


# ---------------------------------------------------------------------------
# 4. ordered factorization: existence, round trip, uniqueness, oracle match


def _body_ordered_factorization() -> None:
    rng = random.Random(888)
    zoo = [(name, delta) for name, delta in relation_zoo() if delta.pairs]
    rings = ring_instances()
    oracle_checks = 0
    trial = 0
    attempts = 0
    while trial < 500:
        attempts += 1
        assert attempts < 5000
        name, delta = zoo[attempts % len(zoo)]
        ring = rings[attempts % len(rings)]
        group = McLainGroup(delta, ring)
        g = random_element(group, rng)
        gamma = closure(g.support(), delta)
        if not gamma.pairs:
            gamma = closure(delta.subset([sorted(delta.pairs)[0]]), delta)
        if len(gamma.pairs) > 10:
            continue
        trial += 1
        order = sorted(gamma.pairs)
        rng.shuffle(order)
        order = tuple(order)
        form = ordered_factorization(g, order)
        assert form.product() == g, name
        again = ordered_factorization(form.product(), order)
        assert again.coefficients == form.coefficients, name
        if trial % 5 == 1:
            victim = rng.choice(order)
            perturbed = dict(form.coefficients)
            perturbed[victim] = perturbed[victim] + ring.one
            bumped = group.identity()
            for pair in order:
                bumped = bumped * group.generator(*pair, perturbed[pair])
            assert bumped != g, name
        if len(order) <= 6:
            assert recursive_ordered_oracle(g, order) == form.coefficients, name
            oracle_checks += 1
    assert oracle_checks >= 100


def test_acceptance_4_ordered_factorization():
    _run(4, "ordered factorization", 30.0, _body_ordered_factorization)


# ---------------------------------------------------------------------------
# 5. the n-gon obstruction: no single-step ordering works, mixed words do


def _body_ngon_obstruction() -> None:
    report = demonstrate_ngon_obstruction(4)
    assert report.orderings_checked == 24
    assert report.successes == 0
    assert report.unit_coefficients_forced
    assert report.every_failure_has_step_two_term
    group = McLainGroup(ngon(4), report.ring)
    target = group.element({edge: 1 for edge in ngon_edges(4)})
    assert group.eval_word(report.mixed_word) == target
    assert report.mixed_word_uses_step_two
    report5 = demonstrate_ngon_obstruction(5)
    assert report5.orderings_checked == 120
    assert report5.successes == 0
    assert report5.mixed_word_matches


def test_acceptance_5_ngon_obstruction():
    _run(5, "ngon obstruction", 5.0, _body_ngon_obstruction)


# ---------------------------------------------------------------------------
# 6. the center is exactly the span of the isolated pairs


def _body_center_characterization() -> None:
    rng = random.Random(999)
    relations = [rel for _, rel in relation_zoo() if rel.pairs]
    added = 0
    seed = 0
    while added < 20:
        seed += 1
        assert seed < 300
        rel, _ = random_relation(seed=500 + seed, node_count=5, density=0.3)
        if rel.pairs:
            relations.append(rel)
            added += 1
    for index, delta in enumerate(relations):
        ring = ring_instances()[index % 3]
        group = McLainGroup(delta, ring)
        central = center_support(delta).pairs
        for pair in sorted(central):
            value = ring.sample(rng)
            z = group.generator(*pair, value if value else ring.one)
            # exhaustive over generator pairs, random coefficients
            for other in sorted(delta.pairs):
                w = group.generator(*other, ring.sample(rng))
                assert z.commutator(w) == group.identity()
                assert w.commutator(z) == group.identity()
            for _ in range(3):
                g = random_element(group, rng)
                assert z.commutator(g) == group.identity()
                assert g.commutator(z) == group.identity()
        after, before = by_first(delta), by_second(delta)
        for i, j in sorted(delta.pairs - central):
            probe = group.generator(i, j, ring.one)
            witnesses = [
                group.generator(j, k, ring.one)
                for _, k in after.get(j, ())
                if (i, k) in delta.pairs
            ] + [
                group.generator(l, i, ring.one)
                for l, _ in before.get(i, ())
                if (l, j) in delta.pairs
            ]
            assert witnesses, (i, j)
            assert any(
                probe.commutator(w) != group.identity() for w in witnesses
            ), (i, j)


def test_acceptance_6_center_characterization():
    _run(6, "center characterization", 10.0, _body_center_characterization)


# ---------------------------------------------------------------------------
# 7. central series sanity across the relation zoo


def _body_central_series_sanity() -> None:
    for name, delta in relation_zoo():
        series = gamma_series(delta, delta)
        size = len(delta.pairs)
        assert len(series.terms) <= size + 1, name
        if size >= 2:
            # the size-th bracket term is already empty
            assert len(series.terms) <= size, name
        assert series.terms[-1].pairs == frozenset(), name
        for term in series.terms:
            assert is_normal(term, delta), name
        group = McLainGroup(delta, IntegersMod(3))
        for current, deeper in zip(series.terms, series.terms[1:]):
            for p in sorted(current.pairs)[:5]:
                for q in sorted(delta.pairs)[:5]:
                    got = group.generator(*p, 1).commutator(group.generator(*q, 1))
                    assert got.support().pairs <= deeper.pairs, (name, p, q)
        upper = upper_central_series(delta)
        assert upper.terms[0].pairs == frozenset(), name
        assert upper.terms[-1].pairs == delta.pairs, name
        for term in upper.terms:
            assert is_normal(term, delta), name
        assert len(upper.terms) == nilpotency_class(series) + 1, name
        if delta.pairs:
            deepest = [t for t in series.terms if t.pairs][-1]
            assert deepest.pairs <= upper.terms[1].pairs, name


def test_acceptance_7_central_series_sanity():
    _run(7, "central series sanity", 10.0, _body_central_series_sanity)


# ---------------------------------------------------------------------------
# 8. nonzero basis products never revisit a node


def _body_distinct_node_walks() -> None:
    relations = list(relation_zoo())
    relations += [(f"chain{m}", chain(m)) for m in range(6, 9)]
    relations += [(f"ngon{n}", ngon(n)) for n in range(7, 9)]
    for seed in range(3):
        rel, _ = random_relation(seed=600 + seed, node_count=8, density=0.15)
        relations.append((f"wide{seed}", rel))
    for name, delta in relations:
        assert len(delta.nodes) <= 8, name
        stack = [[i, j] for i, j in sorted(delta.pairs)]
        after = by_first(delta)
        walks = 0
        while stack:
            walk = stack.pop()
            walks += 1
            assert len(set(walk)) == len(walk), (name, walk)
            if len(walk) > 5:
                continue
            first, last = walk[0], walk[-1]
            for _, nxt in after.get(last, ()):
                if (first, nxt) in delta.pairs:
                    stack.append(walk + [nxt])
        assert walks >= len(delta.pairs)


def test_acceptance_8_distinct_node_walks():
    _run(8, "distinct node walks", 10.0, _body_distinct_node_walks)
