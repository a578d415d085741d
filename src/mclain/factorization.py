"""Factoring group elements into products of generators, and quotients.

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
in the last round alone that the sweep did not converge. The sweep
(``_ordered_sweep``) takes the order as codes and the rounds as node-number
pairs, and returns payloads: ``ordered_factorization`` checks its order and
boxes what the sweep solved, and the coset lift (``_lift``) feeds it the
codes and rounds of a support closure it has just made, and boxes nothing.

Quotients live here too, beside the sweep that lifts their cosets. The
quotient by a normal subset is plain coefficient deletion
(``quotient_project``), which normality makes into a homomorphism onto the
group over the difference, and a coset's representative is the ordered
product, in the ambient group, of the projection's ordered factorization
(``coset_representative``). Both test a code against the difference's
own ``by_code``: the projection keeps it, and the lift's check refuses it.

Every generator product here goes through the row kernel
``elements._generators_times``: the factor 1 + c e(p,q) costs
O(|row q|), not the O(|support|) of a general product. The word
factorization's undos call it directly; every ordered product (the form's,
the sweep's self-check, the coset lift, the n-gon orderings) is
``elements._ordered_product``, which builds from the right end. The layer
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
from bisect import bisect_right

from ._record import record
from .elements import (
    Coeffs,
    Gen,
    GeneratorWord,
    GroupElement,
    McLainGroup,
    _divide,
    _generators_times,
    _ordered_product,
    _payloads,
)
from .relations import (
    Arc,
    InvariantError,
    Pair,
    Relation,
    _bits,
    _bracket_rounds,
    _closed_subset,
    _closed_support,
    difference,
    ngon,
    ngon_diagonals,
    ngon_edges,
)
from .rings import IntegersMod, Ring, RingValue


def minimal_closed_support(g: GroupElement) -> Relation:
    """The smallest closed subset containing the support of g."""
    relation = g.group.relation
    return relation._from_arcs(_closed_support(relation, g._coeffs)[0])


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

    The tokens skip ``Gen``'s check (``Gen._of``): each is a pair of the
    relation, which applied the label rule, and a RingValue of its ring.

    A pass peels one bracket level, and a pair at depth k is a path through
    k + 1 distinct nodes, so there are fewer passes than nodes. A residual
    that keeps a peeled pair (a stored zero from a faulty kernel) would be
    peeled again forever; past one pass per node it raises instead.
    """
    tokens: list[Gen] = []
    group, ring, residual = g.group, g.group.ring, g._coeffs
    index = group.relation._index
    n, passes = len(index.labels), 0
    while residual:
        if passes == n:
            raise InvariantError("word factorization ran past one pass per node")
        passes += 1
        rows, cols = _closed_support(group.relation, residual)[1]
        peel = [
            code for code in sorted(residual) if not rows[code // n] & cols[code % n]
        ]
        if not peel:
            raise InvariantError("support closure has no top level to peel")
        tokens.extend(
            Gen._of(*index.by_code[code], RingValue(ring, residual[code])) for code in peel
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

    ``product`` multiplies out along the order (``_ordered_product``): the
    factor at (p,q) costs O(|row q|).
    """

    group: McLainGroup
    order: tuple[Pair, ...]
    coefficients: dict[Pair, RingValue]

    def __post_init__(self) -> None:
        if missing := next((p for p in self.order if p not in self.coefficients), None):
            raise ValueError(f"order pair ({missing[0]},{missing[1]}) has no coefficient")

    def product(self) -> GroupElement:
        group = self.group
        factors = _payloads(group, ((p, self.coefficients[p]) for p in self.order))
        return GroupElement(group, _ordered_product(group, factors))

    def lines(self) -> list[str]:
        return [f"({i},{j}) ; {self.coefficients[(i, j)]}" for i, j in self.order]


def ordered_factorization(g: GroupElement, order: tuple[Pair, ...]) -> OrderedForm:
    """The unique coefficients reproducing g as an ordered product.

    The order must list each pair of a closed subset exactly once, and
    that subset must contain the support of g. The pairs are read as codes
    and solved by one ordered sweep (``_ordered_sweep``) over the rounds of
    the subset's bracket descent (``relations._bracket_rounds``).
    """
    group, relation = g.group, g.group.relation
    order = tuple(order)
    if len(pairs := frozenset(order)) != len(order):
        raise ValueError("order lists a pair twice, so it is not a total order")
    if stray := sorted(pairs - relation.pairs):
        raise ValueError(f"order contains pairs outside the relation: {stray}")
    codes = [relation._codes[pair] for pair in order]
    by_code = relation._index.by_code
    if missing := sorted([by_code[c] for c in g._coeffs.keys() - set(codes)]):
        raise ValueError(f"order does not cover the support: missing {missing}")
    rounds = _bracket_rounds(*_closed_subset(pairs, relation, "order"))
    found = _ordered_sweep(group, g._coeffs, codes, rounds)
    ring, zero = group.ring, group.ring._zero
    coefficients = {p: RingValue(ring, found.get(c, zero)) for p, c in zip(order, codes)}
    return OrderedForm(group, order, coefficients)


def _ordered_sweep(
    group: McLainGroup, target: Coeffs, codes: list[int], rounds: list[list[Arc]]
) -> Coeffs:
    """The nonzero payloads, by code, of the ordered product along ``codes``
    that equals the coefficient map ``target``, solved in one pass.

    ``codes`` lists a closed subset of the group's pairs in the order of the
    product, and covers the support of target; ``rounds`` are the node-number
    pairs of the subset's bracket descent, by round. When its round comes,
    each pair (v,l) is solved from the finished tails of the shallower pairs
    (module docstring), with w over the bits of row v of the nonzero
    coefficients and column l of the tails. The self-checks multiply the
    solved payloads, once.
    """
    ring, n = group.ring, len(group.relation._index.labels)
    add, neg, fma, zero = ring._add, ring._neg, ring._fma, ring._zero
    at = {code: t for t, code in enumerate(codes)}
    found: Coeffs = {}  # the nonzero coefficients, by code
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
    product = _ordered_product(group, ((c, found[c]) for c in codes if c in found))
    if product != target:
        last = {x * n + y for x, y in rounds[-1]}
        if any(product.get(c) != target.get(c) for c in at.keys() - last):
            raise InvariantError("level sweep residual escaped its bracket level")
        raise InvariantError("level sweep did not converge to the target")
    return found


def quotient_project(g: GroupElement, gamma: Relation) -> GroupElement:
    """Delete the coefficients at a normal subset.

    The result lives in the group over the smaller relation; deletion
    is a surjective homomorphism whose kernel is exactly the elements
    supported inside gamma. The smaller relation is the one ``difference``
    keeps on g's relation for gamma, so its normality test, index and axiom
    scan run once per relation and gamma, not per call. Both relations have
    the same nodes, so the kept codes are those in its index's ``by_code``.
    """
    target = McLainGroup(difference(g.group.relation, gamma), g.group.ring)
    kept = target.relation._index.by_code
    return GroupElement(target, {code: c for code, c in g._coeffs.items() if code in kept})


def coset_representative(g: GroupElement, gamma: Relation) -> GroupElement:
    """The canonical representative of g modulo the subgroup over gamma.

    Project g into the quotient group, factor the image into generators
    there in increasing pair order, then take the ordered product of those
    same generators inside the ambient group (``_lift``). The result depends
    only on the coset of g, and the defining membership of g r^-1 in the
    subgroup is checked on every call rather than trusted.
    """
    return _lift(g, quotient_project(g, gamma))


def _lift(g: GroupElement, projected: GroupElement) -> GroupElement:
    """``coset_representative`` of g from its projection, already taken: the
    payloads of the projection's ordered factorization along the closure of
    its support in sorted order, multiplied in g's group, where the codes
    carry over. The closure's pairs and masks (``_closed_support``) give the
    codes and, by ``_bracket_rounds``, the rounds of its bracket descent,
    which ``_ordered_sweep`` solves along; no label is read and no payload
    boxed.
    As gamma is normal, g r^-1 lies over gamma exactly when r^-1 g does:
    when no code of it is one of the quotient relation's (``by_code``)."""
    group, quotient = g.group, projected.group.relation
    arcs, masks = _closed_support(quotient, projected._coeffs)
    arcs.sort()
    rounds = _bracket_rounds(arcs, masks)
    n = len(quotient._index.labels)
    codes = [x * n + y for x, y in arcs]
    solved = _ordered_sweep(projected.group, projected._coeffs, codes, rounds)
    lifted = _ordered_product(group, ((c, solved[c]) for c in codes if c in solved))
    kept = quotient._index.by_code
    if any(c in kept for c in _divide(group, g._coeffs, lifted)):
        raise InvariantError("coset representative failed the membership check")
    return GroupElement(group, lifted)


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

    The target is the sum of unit generators on all step-one pairs. No
    step-one pair (x,y) is a composite of two pairs of the n-gon, which is
    checked exactly on the index masks (no z has x -> z -> y), so any
    ordered product of step-one generators reproduces its own inputs on
    the step-one coefficients, and every candidate coefficient is forced
    to be the unit. The ordered product of the unit generators is then
    taken in all n! orderings; each one picks up a nonzero step-two
    coefficient wherever (i,i+1) precedes (i+1,i+2), and a full cycle of
    descents is impossible, so none can equal the target. A mixed
    factorization from word_factorization is attached to show the target
    is still a product of generators.
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

    # No edge is a composite, so the edge coefficients of an ordered edge
    # product are exactly the inputs: the all-unit target forces units.
    number, rows, cols = delta._index.number, delta._index.rows, delta._index.cols
    forced = not any(rows[number[x]] & cols[number[y]] for x, y in edges)

    checked = 0
    successes = 0
    all_have_step_two = True
    one, edge_codes = ring.one.payload, [delta._codes[edge] for edge in edges]
    step_two_codes = {delta._codes[pair] for pair in step_two}
    for ordering in itertools.permutations(edge_codes):
        product = _ordered_product(group, ((c, one) for c in ordering))
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
