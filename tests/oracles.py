"""Independent oracles used only by the tests.

Nothing here calls into the library's arithmetic beyond constructing
elements and reading coefficients back out, so agreement between the two
routes is meaningful evidence rather than a tautology.

* Dense route: over the full relation i < j on m nodes, group elements
  are exactly the upper unitriangular m-by-m matrices over Z/p, so plain
  matrix arithmetic (with a Gauss-Jordan inverse) predicts products,
  inverses, and commutators.
* Cut matrices: for a pruned order Δ that is not an order, with T its
  transitive closure, T∖Δ is normal in T, so deleting the coefficients
  at T∖Δ maps G(T) onto G(Δ). Multiplying or inverting unitriangular
  matrices over a linear extension of T and then deleting the entries
  of T∖Δ predicts products, inverses and ordered products in G(Δ)
  (``tests/test_pruned_order_oracle.py``).
* Recursive route: an ordered factorization can be found one coefficient
  at a time by peeling a pair from the deepest bracket level, which is
  central, then recursing in the quotient without it.
* Brute force: over a finite ring, simply enumerate every coefficient
  tuple for the given order and multiply out.
* Greedy route: repeatedly peel a pair of the residual's support that
  admits no composite inside that support; each peel fixes one
  coefficient without disturbing the others, and the routine reports
  failure when no such pair exists.
* Fixed-point saturations: closures recomputed straight from their
  definitions by rescanning every couple of pairs until nothing changes,
  with no worklist and no index.
* Couple scans: isolated pairs, brackets, the bracket series and the
  upper central series read straight from their definitions by testing
  every couple of pairs, with no index.
* Quadruple scan: exchange violations found by testing every quadruple
  of nodes, with no index and no successor set.
* Payload formula: s + ab on raw ring payloads, the residue formula for
  Z and Z/n and ``mat_mul`` for M2(Z/n), against the rings' ``_fma``
  and ``RingValue`` multiplication.
* Series route: the inverse of 1 + x as the alternating power series
  1 - x + x^2 - ..., summed one power at a time in RingValue arithmetic,
  against the library's inverse by repeated squaring on raw payloads.
"""

from __future__ import annotations

import itertools
import random

from mclain import (
    GroupElement,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    gamma_series,
    is_closed,
    quotient_project,
)


def mat_identity(m: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    m = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) % p for j in range(m)]
        for i in range(m)
    ]


def payload_fma(ring, s, a, b):
    """s + ab on raw payloads of Z, Z/n or M2(Z/n), a on the left, by the
    textbook formula and without the ring's hooks."""
    if isinstance(ring, Matrices2x2Mod):
        n = ring.n
        (p, q), (r, t) = mat_mul([a[:2], a[2:]], [b[:2], b[2:]], n)
        return tuple((x + y) % n for x, y in zip(s, (p, q, r, t)))
    if isinstance(ring, IntegersMod):
        return (s + a * b) % ring.n
    return s + a * b


def mat_inv(a: list[list[int]], p: int) -> list[list[int]]:
    m = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] % p != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = pow(aug[col][col], p - 2, p)
        aug[col] = [(x * scale) % p for x in aug[col]]
        for row in range(m):
            if row != col and aug[row][col] % p != 0:
                factor = aug[row][col]
                aug[row] = [(x - factor * y) % p for x, y in zip(aug[row], aug[col])]
    return [row[m:] for row in aug]


def mat_comm(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return mat_mul(mat_mul(a, b, p), mat_mul(mat_inv(a, p), mat_inv(b, p), p), p)


def element_to_matrix(g: GroupElement, m: int) -> list[list[int]]:
    """Chain-group element to a dense unitriangular matrix (labels are 1-based)."""
    out = mat_identity(m)
    for (i, j), value in g.coefficients().items():
        out[int(i) - 1][int(j) - 1] = value.payload
    return out


def matrix_to_element(group: McLainGroup, mat: list[list[int]]) -> GroupElement:
    m = len(mat)
    coeffs = {}
    for i in range(m):
        for j in range(i + 1, m):
            if mat[i][j]:
                coeffs[(str(i + 1), str(j + 1))] = group.ring.from_int(mat[i][j])
    return group.element(coeffs)


def recursive_ordered_oracle(g: GroupElement, order) -> dict:
    """Ordered-factorization coefficients found by central peeling.

    Exponential-ish bookkeeping, so keep the order short (six pairs or so).
    """
    group = g.group
    order = tuple(order)
    gamma = group.relation.subset(order)
    assert is_closed(gamma, group.relation)
    assert g.support().pairs <= gamma.pairs
    sub = McLainGroup(gamma, group.ring)
    return _peel(sub.element(g.coefficients()), order)


def _peel(g: GroupElement, order: tuple) -> dict:
    group = g.group
    if not order:
        assert g.is_identity()
        return {}
    levels = gamma_series(group.relation, group.relation).terms
    deepest = [term for term in levels if term.pairs][-1]
    pivot = min(deepest.pairs)
    shrunk = quotient_project(g, group.relation.subset([pivot]))
    coeffs = _peel(shrunk, tuple(p for p in order if p != pivot))
    partial = group.identity()
    for pair in order:
        if pair != pivot:
            partial = partial * group.generator(pair[0], pair[1], coeffs[pair])
    leftover = partial.inverse() * g
    assert leftover.support().pairs <= {pivot}
    return {**coeffs, pivot: leftover.coefficient(*pivot)}


def brute_force_matches(g: GroupElement, order) -> list[dict]:
    """All coefficient tuples whose ordered product equals g (finite rings only)."""
    group = g.group
    order = tuple(order)
    matches = []
    for combo in itertools.product(group.ring.elements(), repeat=len(order)):
        product = group.identity()
        for pair, value in zip(order, combo):
            product = product * group.generator(pair[0], pair[1], value)
        if product == g:
            matches.append(dict(zip(order, combo)))
    return matches


def greedy_peel_factorization(g: GroupElement):
    """Factor g by always peeling a maximal pair of the residual's support.

    Returns the generator list, or None once the residual's support has no
    maximal pair to peel.
    """
    group = g.group
    residual = g
    out = []
    while not residual.is_identity():
        omega = residual.support()
        pick = None
        for i, j in sorted(omega.pairs):
            extends = any(
                (i, k) in group.relation.pairs for _, k in omega.by_first.get(j, ())
            )
            if not extends:
                pick = (i, j)
                break
        if pick is None:
            return None
        value = residual.coefficient(*pick)
        out.append((pick, value))
        residual = group.generator(pick[0], pick[1], value).inverse() * residual
    return out


def naive_closure(omega: frozenset, delta: frozenset) -> frozenset:
    """Least superset of omega holding every composite of two of its own
    pairs that delta admits."""
    pairs = set(omega)
    changed = True
    while changed:
        changed = False
        for (i, j), (k, l) in itertools.product(list(pairs), repeat=2):
            if j == k and (i, l) in delta and (i, l) not in pairs:
                pairs.add((i, l))
                changed = True
    return frozenset(pairs)


def naive_normal_closure(omega: frozenset, delta: frozenset) -> frozenset:
    """Least superset of omega holding every composite, inside delta, of
    one of its pairs with a pair of delta on either side."""
    pairs = set(omega)
    changed = True
    while changed:
        changed = False
        for (i, j), (k, l) in itertools.product(list(pairs), delta):
            for composite, composable in (((i, l), j == k), ((k, j), l == i)):
                if composable and composite in delta and composite not in pairs:
                    pairs.add(composite)
                    changed = True
    return frozenset(pairs)


def naive_isolated(pairs: frozenset) -> frozenset:
    """Pairs of the set that compose with no pair of it, on either side,
    to a pair of it."""
    return frozenset(
        (i, j)
        for i, j in pairs
        if not any(
            (j == k and (i, l) in pairs) or (l == i and (k, j) in pairs)
            for k, l in pairs
        )
    )


def naive_bracket(a: frozenset, b: frozenset, delta: frozenset) -> frozenset:
    """Pairs of delta composed of a pair of a and a pair of b, in either order."""
    couples = itertools.chain(itertools.product(a, b), itertools.product(b, a))
    return frozenset((i, l) for (i, j), (k, l) in couples if j == k and (i, l) in delta)


def naive_gamma_series(gamma: frozenset, delta: frozenset):
    """The terms gamma, [gamma, gamma], ... down to the first empty one,
    each the bracket of the last with gamma, or None when the term after
    |gamma| brackets is still nonempty: the chain then needs more than
    |gamma| + 1 terms."""
    terms = [gamma]
    while terms[-1]:
        if len(terms) > len(gamma):
            return None
        terms.append(naive_bracket(terms[-1], gamma, delta))
    return terms


def naive_exchange_violations(nodes, pairs: frozenset) -> list:
    """(quadruple, present, absent) for each quadruple i,j,k,l of nodes, in
    sorted order, with (i,j), (j,k), (k,l), (i,l) in pairs and exactly one
    of (i,k), (j,l); nodes of a quadruple may repeat."""
    out = []
    for i, j, k, l in itertools.product(sorted(nodes), repeat=4):
        has_ik, has_jl = (i, k) in pairs, (j, l) in pairs
        if {(i, j), (j, k), (k, l), (i, l)} <= pairs and has_ik != has_jl:
            present, absent = ((i, k), (j, l)) if has_ik else ((j, l), (i, k))
            out.append(((i, j, k, l), present, absent))
    return out


def naive_upper_central_series(delta: frozenset):
    """The terms from the empty set up, each adjoining the isolated pairs of
    what is left, or None when the series stalls with nothing isolated."""
    terms, rest = [frozenset()], delta
    while rest:
        step = naive_isolated(rest)
        if not step:
            return None
        terms.append(terms[-1] | step)
        rest = rest - step
    return terms


def naive_transitive_closure(pairs) -> set:
    out = set(pairs)
    changed = True
    while changed:
        changed = False
        for (i, j), (k, l) in itertools.product(list(out), repeat=2):
            if j == k and (i, l) not in out:
                out.add((i, l))
                changed = True
    return out


def fixed_point_pruned_order(seed: int, node_count: int, density: float):
    """random_pruned_order rebuilt with the same random draws: sampled
    forward steps of a shuffled ranking, their transitive closure, then
    removal of the normal closure of a sampled seed set. Returns the
    node set and the pair set."""
    rng = random.Random(seed)
    nodes = [str(i) for i in range(1, node_count + 1)]
    ranked = list(nodes)
    rng.shuffle(ranked)
    steps = set()
    for a in range(node_count):
        for b in range(a + 1, node_count):
            if rng.random() < density:
                steps.add((ranked[a], ranked[b]))
    order = frozenset(naive_transitive_closure(steps))
    seeds = frozenset(p for p in sorted(order) if rng.random() < 0.3)
    return frozenset(nodes), order - naive_normal_closure(seeds, order)


def alternating_series_inverse(g: GroupElement) -> GroupElement:
    """(1+x)^-1 = 1 - x + x^2 - ..., term by term: each power of -x is
    spliced from the last over every couple of pairs and added in. A
    nonzero power of x walks through distinct nodes, so the powers from
    the node count on vanish."""
    group = g.group
    minus_x = {pair: -value for pair, value in g.coefficients().items()}
    total, power = dict(minus_x), minus_x
    for _ in range(len(group.relation.nodes)):
        spliced = {}
        for ((i, j), a), ((k, l), b) in itertools.product(
            power.items(), minus_x.items()
        ):
            if j == k and (i, l) in group.relation.pairs:
                prior = spliced.get((i, l), group.ring.zero)
                spliced[(i, l)] = prior + a * b
        power = spliced
        for pair, value in power.items():
            total[pair] = total.get(pair, group.ring.zero) + value
    return group.element(total)
