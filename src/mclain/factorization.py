"""Factoring group elements into products of generators.

Two factorizations are provided. The unordered one peels coefficients
level by level: modulo the bracket of the support closure, coefficient
maps simply add, so clearing the coefficients outside the bracket
pushes the residual one level deeper, and recursion bottoms out because
every closed set's bracket is strictly smaller.

The ordered one is canonical: given any total order on a closed set
covering the element's support, there is exactly one choice of one
coefficient per pair whose ordered generator product reproduces the
element. It is computed by a level sweep over the rounds of the bracket
descent of the closed set, read as pair codes. Before level k the running
product P agrees with the target g outside the k-th bracket term. That
term is normal, so P^-1 g lies in the subgroup over it, and in
g = P (P^-1 g) every cross term lands at level k + 1 or deeper: at a
level-k pair the coefficient is g's minus P's, in any position of the
order, and no residual P^-1 g is ever formed.

Every generator product here, the sweep's included, goes through the
row kernel ``elements._generators_times``: the factor 1 + c e(p,q) costs
O(|row q|), not the O(|support|) of a general product. Ordered products
feed it their factors last-first, building from the right end. The
kernel takes validated payloads: values are checked where they enter
(``McLainGroup.element``, ``McLainGroup.eval_word``,
``OrderedForm.product``), and both sweeps work on payloads, building
ring values only for the forms and words they return.

The n-gon demonstration shows why the order must be allowed to roam
over the closure rather than just the support: around an n-cycle with
steps of size one and two, the sum of all unit step-one generators is
not a product of step-one generators in any order, so every
factorization of it must borrow step-two pairs.
"""

from __future__ import annotations

import itertools
import random

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
    _bracket_rounds,
    _masks,
    _saturate,
    closure,
    ngon,
    ngon_diagonals,
    ngon_edges,
)
from .rings import IntegersMod, Ring, RingValue


def minimal_closed_support(g: GroupElement) -> Relation:
    """The smallest closed subset containing the support of g."""
    return closure(g.support(), g.group.relation)


def word_factorization(g: GroupElement) -> GeneratorWord:
    """A flat product of generators evaluating back to g.

    Each pass peels the support pairs lying outside the bracket of the
    current closed support C, recording one generator per peeled pair;
    what remains is supported strictly deeper, so the passes terminate.
    Evaluating the recorded word left to right reconstructs g exactly. A
    pair (a,c) lies outside [C, C] when C_row[a] & C_col[c] is 0, with C's
    masks as saturating the support's codes, split into node numbers, leaves
    them: only the peeled pairs are decoded.

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
        support = [divmod(code, n) for code in residual]
        rows, cols = _masks(support, n)
        _saturate(support, group.relation, (rows, cols), closed=True)
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
    that subset must contain the support of g. The sweep walks the rounds of
    its bracket descent (``relations._bracket_rounds``) as pair codes: each
    round's coefficients are g's minus those of the ordered product of the
    coefficients found so far. The form is built once the sweep is done.
    """
    group, relation = g.group, g.group.relation
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("order lists a pair twice, so it is not a total order")
    try:
        gamma = relation.subset(order)
    except ValueError as exc:
        raise ValueError(f"order contains pairs outside the relation: {exc}") from exc
    ring, target, zero = group.ring, g._coeffs, group.ring._zero
    codes = [relation._codes[pair] for pair in order]
    if missing := sorted(map(relation._index.pair, target.keys() - set(codes))):
        raise ValueError(f"order does not cover the support: missing {missing}")
    rounds = _bracket_rounds(gamma, relation)  # also rejects a non-closed order
    n, backward = len(relation._index.labels), codes[::-1]
    found: dict[int, object] = {}  # the nonzero coefficients so far, by code
    swept: list[int] = []  # the codes outside the current bracket term
    for shed in rounds:
        factors = ((c, found[c]) for c in backward if c in found)
        running = _generators_times(group, factors, {})
        if any(running.get(c) != target.get(c) for c in swept):
            raise AssertionError("level sweep residual escaped its bracket level")
        for x, y in shed:
            code = x * n + y
            c = ring._add(target.get(code, zero), ring._neg(running.get(code, zero)))
            if c != zero:
                found[code] = c
            swept.append(code)
    coefficients = {p: RingValue(ring, found.get(c, zero)) for p, c in zip(order, codes)}
    form = OrderedForm(group, order, coefficients)
    if form.product() != g:
        raise AssertionError("level sweep did not converge to the target")
    return form


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
    units = {edge: ring.one for edge in edges}
    step_two_codes = {delta._codes[pair] for pair in step_two}
    for ordering in itertools.permutations(edges):
        product = OrderedForm(group, ordering, units).product()
        checked += 1
        if product == target:
            successes += 1
        elif step_two_codes.isdisjoint(product._coeffs):
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
