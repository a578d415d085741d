"""Factoring group elements into products of generators.

Two factorizations are provided. The unordered one peels coefficients
level by level: modulo the bracket of the support closure, coefficient
maps simply add, so clearing the coefficients outside the bracket
pushes the residual one level deeper, and recursion bottoms out because
every closed set's bracket is strictly smaller.

The ordered one is canonical: given any total order on a closed set
covering the element's support, there is exactly one choice of one
coefficient per pair whose ordered generator product reproduces the
element. It is solved in one pass, a triangular back-substitution like
the right division ``elements._divide``. With Q_t the product of the
factors after position t, the row kernel's rule makes Q_t[v,l] the sum of
c(v,w) Q_s[w,l] over the factors (v,w) at positions s > t, with Q_s[l,l]
= 1: a step function of t, kept as the pair's tail, its terms sorted by
position with their suffix sums. The rounds of the bracket descent of the
closed set, read as pair codes, shed (v,l) after every (v,w) and (w,l) it
sums over, so when its round comes each term is one ``_fma`` of a found
coefficient by a suffix sum read off a finished tail with ``bisect_right``,
and c(v,l) is g's coefficient less their sum. The coefficient stays on the
left, so the pass is exact over noncommutative rings. Both self-checks
read one product of the solved payloads: a mismatch with g at a pair shed
before the last round means a residual escaped its bracket level, and one
in the last round alone that the sweep did not converge.

Every generator product here goes through the row kernel
``elements._generators_times``: the factor 1 + c e(p,q) costs
O(|row q|), not the O(|support|) of a general product. Ordered products
feed it their factors last-first, building from the right end. The layer
works on pair codes, node-number pairs and payloads from entry to return,
closing a support once on codes (``_closed_support``): values are checked
where they enter the group, and nothing it solved is checked again. Labels
and ring values are built only for the relations, forms and words returned.

The n-gon demonstration shows why the order must be allowed to roam
over the closure rather than just the support: around an n-cycle with
steps of size one and two, the sum of all unit step-one generators is
not a product of step-one generators in any order, so every
factorization of it must borrow step-two pairs.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right

from ._record import record
from .elements import (
    Gen,
    GeneratorWord,
    GroupElement,
    McLainGroup,
    _generators_times,
    _payloads,
)
from .relations import (
    Pair,
    Relation,
    _bits,
    _bracket_rounds,
    _closed_support,
    ngon,
    ngon_diagonals,
    ngon_edges,
)
from .rings import IntegersMod, Ring, RingValue


def minimal_closed_support(g: GroupElement) -> Relation:
    """The smallest closed subset containing the support of g."""
    relation = g.group.relation
    pairs = relation._index.decode(_closed_support(relation, g._coeffs)[0])
    return Relation._within(relation.nodes, frozenset(pairs))


def word_factorization(g: GroupElement) -> GeneratorWord:
    """A flat product of generators evaluating back to g.

    Each pass peels the support pairs lying outside the bracket of the
    current closed support C, recording one generator per peeled pair;
    what remains is supported strictly deeper, so the passes terminate.
    Evaluating the recorded word left to right reconstructs g exactly. A
    pair (a,c) lies outside [C, C] when C_row[a] & C_col[c] is 0, with C's
    masks from ``_closed_support``: only the peeled pairs are decoded.

    A pass removes its peeled generators with one call of the row
    kernel. Those undos change coefficients only in the bracket of the
    closed support, where no peeled pair lies, so every peeled value is
    read off the residual as it stood at the start of the pass.
    """
    tokens: list[Gen] = []
    group, ring, residual = g.group, g.group.ring, g._coeffs
    index = group.relation._index
    n = len(index.labels)
    while residual:
        rows, cols = _closed_support(group.relation, residual)[1]
        peel = [
            code for code in sorted(residual) if not rows[code // n] & cols[code % n]
        ]
        if not peel:
            raise AssertionError("support closure has no top level to peel")
        tokens.extend(
            Gen(*index.pair(code), RingValue(ring, residual[code])) for code in peel
        )
        undos = [(code, ring._neg(residual[code])) for code in peel]
        residual = _generators_times(group, undos, residual)
    return GeneratorWord(tuple(tokens))


@record(eq=False)
class OrderedForm:
    """Coefficients for an ordered generator product, zeros included.

    ``order`` fixes the factor positions; ``coefficients`` maps every
    pair of the order to its coefficient, and the ordered product of
    the corresponding generators reproduces the factored element.

    ``product`` multiplies out with the row kernel from the right end of
    the order: the product so far is kept by row, and the factor at (p,q)
    costs O(|row q|).
    """

    group: McLainGroup
    order: tuple[Pair, ...]
    coefficients: dict[Pair, RingValue]

    def __post_init__(self) -> None:
        if missing := next((p for p in self.order if p not in self.coefficients), None):
            raise ValueError(f"order pair ({missing[0]},{missing[1]}) has no coefficient")

    def product(self) -> GroupElement:
        group = self.group
        factors = list(_payloads(group, ((p, self.coefficients[p]) for p in self.order)))
        return GroupElement(group, _generators_times(group, reversed(factors), {}))

    def lines(self) -> list[str]:
        return [f"({i},{j}) ; {self.coefficients[(i, j)]}" for i, j in self.order]


def ordered_factorization(g: GroupElement, order: tuple[Pair, ...]) -> OrderedForm:
    """The unique coefficients reproducing g as an ordered product.

    The order must list each pair of a closed subset exactly once, and
    that subset must contain the support of g. One pass over the rounds of
    its bracket descent (``relations._bracket_rounds``) solves each pair
    (v,l) from the finished tails of the shallower pairs (module docstring),
    with w over the bits of row v of the nonzero coefficients and column l
    of the tails. The self-checks multiply the solved payloads, once.
    """
    group, relation = g.group, g.group.relation
    order = tuple(order)
    if len(pairs := frozenset(order)) != len(order):
        raise ValueError("order lists a pair twice, so it is not a total order")
    if stray := sorted(pairs - relation.pairs):
        stray_text = f"pairs not in the relation: {stray}"
        raise ValueError(f"order contains pairs outside the relation: {stray_text}")
    ring, target = group.ring, g._coeffs
    add, neg, fma, zero = ring._add, ring._neg, ring._fma, ring._zero
    codes = [relation._codes[pair] for pair in order]
    n, at = len(relation._index.labels), {code: t for t, code in enumerate(codes)}
    if missing := sorted(map(relation._index.pair, target.keys() - at.keys())):
        raise ValueError(f"order does not cover the support: missing {missing}")
    rounds = _bracket_rounds(pairs, relation)  # also rejects a non-closed order
    found: dict[int, object] = {}  # the nonzero coefficients, by code
    tails: dict[int, tuple[list[int], list[object]]] = {}  # positions, suffix sums
    found_rows, tail_cols = [0] * n, [0] * n  # their codes' bits, by row and column
    for shed in rounds:
        for v, l in shed:
            start, terms, total = v * n, [], zero
            for w in _bits(found_rows[v] & tail_cols[l]):
                where, sums = tails[w * n + l]
                s = at[start + w]
                k = bisect_right(where, s)
                if k < len(where):
                    term = fma(zero, found[start + w], sums[k])
                    terms.append((s, term))
                    total = add(total, term)
            code = start + l
            c = add(target.get(code, zero), neg(total))
            if c != zero:
                found[code] = c
                found_rows[v] |= 1 << l
                terms.append((at[code], c))
            if terms:
                tail_cols[l] |= 1 << v
                terms.sort()
                suffix, total = [], zero
                for _, term in reversed(terms):
                    total = add(total, term)
                    suffix.append(total)
                tails[code] = ([s for s, _ in terms], suffix[::-1])
    factors = [(code, found[code]) for code in reversed(codes) if code in found]
    product = _generators_times(group, factors, {})
    if product != target:
        last = {x * n + y for x, y in rounds[-1]}
        if any(product.get(c) != target.get(c) for c in at.keys() - last):
            raise AssertionError("level sweep residual escaped its bracket level")
        raise AssertionError("level sweep did not converge to the target")
    coefficients = {p: RingValue(ring, found.get(c, zero)) for p, c in zip(order, codes)}
    return OrderedForm(group, order, coefficients)


@record(eq=False)
class NgonReport:
    """Outcome of the n-gon obstruction demonstration."""

    n: int
    ring: Ring
    orderings_checked: int
    successes: int
    every_failure_has_step_two_term: bool
    unit_coefficients_forced: bool
    mixed_word: GeneratorWord
    mixed_word_matches: bool
    mixed_word_uses_step_two: bool

    def summary(self) -> str:
        return f"{self.orderings_checked} orderings checked, {self.successes} succeed"


def demonstrate_ngon_obstruction(n: int, ring: Ring | None = None) -> NgonReport:
    """Exhaust the single-step factorization attempts around an n-cycle.

    The target is the sum of unit generators on all step-one pairs. Any
    ordered product of step-one generators reproduces its own inputs on
    the step-one coefficients, which is asserted on random inputs and
    forces every candidate coefficient to be the unit. The ordered
    product of the unit generators is then taken in all n! orderings;
    each one picks up a nonzero step-two coefficient wherever (i,i+1)
    precedes (i+1,i+2), and a full cycle of descents is impossible, so
    none can equal the target. A mixed factorization from word_factorization is attached
    to show the target is still a product of generators.
    """
    if not 4 <= n <= 6:
        raise ValueError("the demonstration enumerates n! orderings; use 4 <= n <= 6")
    if ring is None:
        ring = IntegersMod(2)
    delta = ngon(n)
    group = McLainGroup(delta, ring)
    edges = ngon_edges(n)
    step_two = set(ngon_diagonals(n))
    target = group.element({edge: ring.one for edge in edges})

    # Edge coefficients of an ordered edge product are exactly the inputs:
    # matching the all-unit target therefore forces unit coefficients.
    rng = random.Random(20240 + n)
    forced = True
    for _ in range(20):
        values = {edge: ring.sample(rng) for edge in edges}
        shuffled = list(edges)
        rng.shuffle(shuffled)
        product = OrderedForm(group, tuple(shuffled), values).product()
        if any(product.coefficient(*e) != values[e] for e in edges):
            forced = False

    checked = 0
    successes = 0
    all_have_step_two = True
    one, edge_codes = ring.one.payload, [delta._codes[edge] for edge in edges]
    step_two_codes = {delta._codes[pair] for pair in step_two}
    for ordering in itertools.permutations(edge_codes):
        product = _generators_times(group, ((c, one) for c in reversed(ordering)), {})
        checked += 1
        if product == target._coeffs:
            successes += 1
        elif step_two_codes.isdisjoint(product):
            all_have_step_two = False

    mixed = word_factorization(target)
    mixed_matches = group.eval_word(mixed) == target
    mixed_uses_step_two = any(
        isinstance(token, Gen) and (token.source, token.target) in step_two
        for token in mixed.tokens
    )
    return NgonReport(
        n=n,
        ring=ring,
        orderings_checked=checked,
        successes=successes,
        every_failure_has_step_two_term=all_have_step_two,
        unit_coefficients_forced=forced,
        mixed_word=mixed,
        mixed_word_matches=mixed_matches,
        mixed_word_uses_step_two=mixed_uses_step_two,
    )
