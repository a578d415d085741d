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
* Definition wrappers: the violation records, the series terms with the
  library's error texts, the bracket levels and the word peel, built from
  the naive scans above; the peel undoes its generators with the public
  group product, which the couple-scan kernels below check
  (``tests/test_mask_calculus.py``).
* Couple-scan kernels: one product on payload maps keyed by label pairs,
  x + y + xy with each term x[i,j] y[j,l] admitted by a lookup of (i,l)
  in the pair set. The inverse is the alternating series 1 - x + x^2 -
  ... on it, and division, generator runs, the commutator and words are
  folds of those (``tests/test_code_kernels.py``, and through
  ``scanned``, which makes an element of a scan's map, the seeded sweep
  and the call-count table of ``tests/test_kernels.py``).
* Payload formula: s + ab on raw ring payloads, the residue formula for
  Z and Z/n and ``mat_mul`` for M2(Z/n), against the rings' ``_fma``
  and ``RingValue`` multiplication.
* Group-level series: over a finite ring Z/n, every element of G(Δ) is
  enumerated and the lower and upper central series are computed from
  their group definitions: subgroups grow by right multiplication and
  normal closures by conjugating each new generator. This route does use
  the library's products, inverses and commutators, and no relation
  calculus at all, so it checks the series and quotients computed on the
  relation against the group they describe (``tests/test_series.py``).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from mclain import (
    ExchangeViolation,
    Gen,
    GeneratorWord,
    GroupElement,
    IntegersMod,
    InvariantError,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    Pair,
    ReflexiveViolation,
    Relation,
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
        after = by_first(omega)
        pick = None
        for i, j in sorted(omega.pairs):
            extends = any((i, k) in group.relation.pairs for _, k in after.get(j, ()))
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


def naive_violations(delta: Relation) -> list:
    """Both axioms as the library's records: the reflexive loops in sorted
    node order, then the exchange violations of the quadruple scan."""
    loops = [(i, i) for i in sorted(delta.nodes) if (i, i) in delta.pairs]
    scan = naive_exchange_violations(delta.nodes, delta.pairs)
    return [*map(ReflexiveViolation, loops), *(ExchangeViolation(*v) for v in scan)]


def naive_gamma_terms(gamma: frozenset, delta: frozenset) -> list:
    """``naive_gamma_series`` with the library's errors: a gamma that is not
    its own closure raises ValueError, and a chain that does not die out
    within |gamma| brackets raises InvariantError."""
    if naive_closure(gamma, delta) != gamma:
        raise ValueError("gamma series needs a closed subset")
    terms = naive_gamma_series(gamma, delta)
    if terms is None:
        raise InvariantError("bracket series failed to terminate")
    return terms


def naive_levels(delta: frozenset) -> tuple:
    """The pairs of each bracket level of delta with itself, each sorted:
    the differences of consecutive terms of its gamma series."""
    terms = naive_gamma_terms(delta, delta)
    return tuple(tuple(sorted(a - b)) for a, b in itertools.pairwise(terms))


def naive_upper_terms(delta: frozenset) -> list:
    """``naive_upper_central_series`` with the library's stall error."""
    terms = naive_upper_central_series(delta)
    if terms is None:
        stall = "upper central series stalled before exhausting the relation"
        raise InvariantError(stall)
    return terms


def naive_word_factorization(g: GroupElement) -> GeneratorWord:
    """Peel, in sorted order, the support pairs outside the bracket of the
    support's closure, one generator each, and undo each peel by a left
    product with its inverse generator, until nothing is left."""
    group, delta = g.group, g.group.relation.pairs
    tokens, residual = [], g
    while not residual.is_identity():
        support = residual.support().pairs
        closed = naive_closure(support, delta)
        peel = sorted(support - naive_bracket(closed, closed, delta))
        if not peel:
            raise InvariantError("support closure has no top level to peel")
        values = [residual.coefficient(*pair) for pair in peel]
        tokens += [Gen(*pair, value) for pair, value in zip(peel, values)]
        for pair, value in zip(peel, values):
            residual = group.generator(*pair, -value) * residual
    return GeneratorWord(tuple(tokens))


def by_first(relation: Relation) -> dict[str, tuple[Pair, ...]]:
    """The relation's pairs grouped by source label, each group sorted."""
    index: dict[str, list[Pair]] = {}
    for pair in sorted(relation.pairs):
        index.setdefault(pair[0], []).append(pair)
    return {k: tuple(v) for k, v in index.items()}


def by_second(relation: Relation) -> dict[str, tuple[Pair, ...]]:
    """The relation's pairs grouped by target label, each group sorted."""
    index: dict[str, list[Pair]] = {}
    for pair in sorted(relation.pairs):
        index.setdefault(pair[1], []).append(pair)
    return {k: tuple(v) for k, v in index.items()}


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


# ---------------------------------------------------------------------------
# Couple-scan kernels: coefficient maps keyed by label pairs, each to a
# nonzero raw payload of the group's ring.


def scan_payloads(ring, items) -> list[tuple[Pair, object]]:
    """Each (pair, value) as (pair, raw payload), zeros dropped."""
    payloads = [(pair, ring.coerce(value).payload) for pair, value in items]
    return [(pair, c) for pair, c in payloads if c != ring._zero]


def scan_splice(group: McLainGroup, x: dict, y: dict, base: dict) -> dict:
    """base + xy, zeros dropped: every couple (i,j), (j,l) of x and y whose
    composite (i,l) is a pair of the relation adds x[i,j] y[j,l] through
    the ring's ``_fma``."""
    ring, pairs = group.ring, group.relation.pairs
    out = dict(base)
    for ((i, j), a), ((k, l), b) in itertools.product(x.items(), y.items()):
        if j == k and (i, l) in pairs:
            out[i, l] = ring._fma(out.get((i, l), ring._zero), a, b)
    return {pair: c for pair, c in out.items() if c != ring._zero}


def scan_product(group: McLainGroup, x: dict, y: dict) -> dict:
    """The map of (1+x)(1+y) = 1 + x + y + xy."""
    add, zero = group.ring._add, group.ring._zero
    base = dict(x)
    for pair, c in y.items():
        base[pair] = add(base.get(pair, zero), c)
    return scan_splice(group, x, y, base)


def scan_inverse(group: McLainGroup, x: dict) -> dict:
    """The map of (1+x)^-1 = 1 - x + x^2 - ..., by Horner's rule: y becomes
    -x + (-x)y once per node, each time taking one more power of -x. A
    nonzero power of x walks through distinct nodes, so the powers from the
    node count on vanish."""
    minus_x = {pair: group.ring._neg(c) for pair, c in x.items()}
    y: dict = {}
    for _ in group.relation.nodes:
        y = scan_splice(group, minus_x, y, minus_x)
    return y


def scan_divide(group: McLainGroup, u: dict, w: dict) -> dict:
    """The map of (1+u)(1+w)^-1."""
    return scan_product(group, u, scan_inverse(group, w))


def scan_generators_times(group: McLainGroup, factors, x: dict) -> dict:
    """The map of ...(1 + c2 e(p2))(1 + c1 e(p1))(1+x): each (pair, payload)
    factor in turn multiplies on the left."""
    for pair, c in factors:
        x = scan_product(group, {pair: c}, x)
    return x


def scan_commutator(group: McLainGroup, x: dict, y: dict) -> dict:
    """The map of g h g^-1 h^-1, for g = 1+x and h = 1+y."""
    inverses = scan_product(group, scan_inverse(group, x), scan_inverse(group, y))
    return scan_product(group, scan_product(group, x, y), inverses)


def scan_eval_word(group: McLainGroup, word: GeneratorWord) -> dict:
    """The map of a word, its tokens multiplied in from left to right."""
    out: dict = {}
    for token in word.tokens:
        if isinstance(token, Gen):
            pair = (token.source, token.target)
            step = dict(scan_payloads(group.ring, [(pair, token.value)]))
        elif isinstance(token, Inv):
            step = scan_inverse(group, scan_eval_word(group, token.word))
        else:
            left, right = (scan_eval_word(group, w) for w in (token.left, token.right))
            step = scan_commutator(group, left, right)
        out = scan_product(group, out, step)
    return out


def scanned(group: McLainGroup, scan, *args) -> GroupElement:
    """The element of the label map ``scan(group, *args)``, each group
    element among the args passed as its label map of raw payloads."""
    maps = [
        {pair: v.payload for pair, v in a.coefficients().items()}
        if isinstance(a, GroupElement) else a
        for a in args
    ]
    return group.element({pair: group.ring.value(c) for pair, c in scan(group, *maps).items()})


# ---------------------------------------------------------------------------
# group-level series


def all_elements(group: McLainGroup) -> list[GroupElement]:
    """Every element of G(Δ) over a finite ring, one per coefficient tuple."""
    pairs = sorted(group.relation.pairs)
    values = list(group.ring.elements())
    return [
        group.element(dict(zip(pairs, combo)))
        for combo in itertools.product(values, repeat=len(pairs))
    ]


def unit_generators(group: McLainGroup) -> list[GroupElement]:
    """The x_p(1), one per pair; they generate G(Δ) over Z/n."""
    one = group.ring.one
    return [group.generator(i, j, one) for i, j in sorted(group.relation.pairs)]


def _grow(members: set, gens: list, new: GroupElement) -> None:
    """Extend the finite subgroup ``members`` = <gens> in place to <gens, new>:
    old elements times old generators are members already, so only the old
    elements times ``new`` and the new elements times every generator are
    taken; a finite set closed under right multiplication is a subgroup."""
    gens.append(new)
    todo = [h * new for h in members]
    while todo:
        h = todo.pop()
        if h not in members:
            members.add(h)
            todo.extend(h * t for t in gens)


def normal_closure_of(seeds: Iterable[GroupElement], generators, identity) -> frozenset:
    """The least normal subgroup holding the seeds. Each element that joins
    as a generator has its conjugates x t x^-1 by the group's generators
    queued; a subgroup holding those for every generator t is normal."""
    members, gens = {identity}, []
    pending = list(seeds)
    while pending:
        t = pending.pop()
        if t not in members:
            _grow(members, gens, t)
            pending.extend(x * t * x.inverse() for x in generators)
    return frozenset(members)


def group_lower_central_series(group: McLainGroup) -> list[frozenset] | None:
    """gamma_1 = G and gamma_(k+1) the normal closure of the [a, x] with a in
    gamma_k and x a unit generator, down to the trivial group; None when a
    term repeats, so the group is not nilpotent."""
    xs, identity = unit_generators(group), group.identity()
    terms = [frozenset(all_elements(group))]
    while len(terms[-1]) > 1:
        seeds = (a.commutator(x) for a in terms[-1] for x in xs)
        terms.append(normal_closure_of(seeds, xs, identity))
        if terms[-1] == terms[-2]:
            return None
    return terms


def group_upper_central_series(group: McLainGroup) -> list[frozenset] | None:
    """Z_0 = 1 and Z_(k+1) the g with [g, x] in Z_k for every unit generator
    x, up to G; None when a term repeats."""
    everything, xs = all_elements(group), unit_generators(group)
    terms = [frozenset({group.identity()})]
    while len(terms[-1]) < len(everything):
        last = terms[-1]
        terms.append(frozenset(g for g in everything if all(g.commutator(x) in last for x in xs)))
        if terms[-1] == last:
            return None
    return terms
