"""Structure theory: central series, the center, and quotients.

Everything here happens at the relation level and is then interpreted
in the group. The lower central series of the group is the bracket
series of the relation; the center is the set of elements supported on
the isolated pairs; quotients by normal subsets are computed by plain
coefficient deletion, which normality makes into a homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import GroupElement, McLainGroup, _divide
from .relations import (
    Relation,
    SubsetChain,
    _absorbs,
    _masks,
    _upper_remainders,
    difference,
    gamma_series,
    isolated,
    require_valid,
)
from .rings import Ring


@dataclass(frozen=True)
class FactorReport:
    """One lower-central factor: free over the ring on the level's pairs.

    The factor at level k is a restricted direct product of rank copies
    of the additive group of the ring, one copy per pair that lives at
    level k and dies at level k + 1.
    """

    level: int
    support: Relation
    rank: int
    ring: Ring


def lower_central_series(
    delta: Relation, ring: Ring
) -> tuple[SubsetChain, list[FactorReport]]:
    """The bracket series of the whole relation, with factor reports."""
    require_valid(delta)
    chain = gamma_series(delta, delta)
    reports = []
    for level, (current, nxt) in enumerate(zip(chain.terms, chain.terms[1:]), 1):
        support = Relation(delta.nodes, current.pairs - nxt.pairs)
        reports.append(FactorReport(level, support, len(support.pairs), ring))
    return chain, reports


def nilpotency_class(chain: SubsetChain) -> int:
    """Number of nonempty terms of a descending chain."""
    return sum(1 for term in chain.terms if term.pairs)


def center_support(delta: Relation) -> Relation:
    """Pairs supporting central elements: exactly the isolated ones."""
    require_valid(delta)
    return isolated(delta)


def upper_central_series(delta: Relation) -> SubsetChain:
    """Ascending chain from the empty subset up to the whole relation.

    Term k is delta less its k-th remainder (``relations._upper_remainders``,
    a descent on delta's masks): each step adjoins the pairs of what is left
    that are a factor of no composite left, the isolated pairs of the
    quotient by the last term. The quotient isomorphism is what lets the
    accumulated union stand in for centers of successive quotient groups.
    Each term is checked to be normal at its new pairs, against masks of the
    term that grow by each step's bits; the previous term already was normal
    at the others.
    """
    require_valid(delta)
    zeta, left, terms = frozenset(), delta.pairs, []
    number = delta._index.number
    masks = _masks((), number)
    for rest in _upper_remainders(delta):
        step = left - rest
        zeta = zeta | step
        if not _absorbs(step, delta, _masks(step, number, masks), normal=True):
            raise AssertionError("upper central series term failed the normality check")
        terms.append(Relation(delta.nodes, zeta))
        left = rest
    return SubsetChain("ascending", tuple(terms))


def quotient_project(g: GroupElement, gamma: Relation) -> GroupElement:
    """Delete the coefficients at a normal subset.

    The result lives in the group over the smaller relation; deletion
    is a surjective homomorphism whose kernel is exactly the elements
    supported inside gamma.
    """
    target = McLainGroup(difference(g.group.relation, gamma), g.group.ring)
    kept = {pair: c for pair, c in g._coeffs.items() if pair not in gamma.pairs}
    return GroupElement(target, kept)


def coset_representative(g: GroupElement, gamma: Relation) -> GroupElement:
    """The canonical representative of g modulo the subgroup over gamma.

    Project g into the quotient group, factor the image into generators
    there in increasing pair order, then take the ordered product
    (OrderedForm.product) of those same generators inside the ambient
    group. The result depends only on the coset of g, and the defining
    membership of g r^-1 in the subgroup is checked on every call rather
    than trusted.
    """
    return _lift(g, gamma, quotient_project(g, gamma))


def _lift(g: GroupElement, gamma: Relation, projected: GroupElement) -> GroupElement:
    """``coset_representative`` of g from its projection, already taken. As gamma
    is normal, g r^-1 lies over gamma exactly when r^-1 g does: one division."""
    from .factorization import OrderedForm, minimal_closed_support, ordered_factorization

    order = tuple(sorted(minimal_closed_support(projected).pairs))
    form = ordered_factorization(projected, order)
    representative = OrderedForm(g.group, order, form.coefficients).product()
    leftover = _divide(g.group, g._coeffs, representative._coeffs)
    if not leftover.keys() <= gamma.pairs:
        raise AssertionError("coset representative failed the membership check")
    return representative


def format_chain_lines(
    chain: SubsetChain, reports: list[FactorReport] | None = None
) -> list[str]:
    """Deterministic report lines, one per chain term.

    Descending chains are numbered from 1 and may carry ranks; the
    ascending chain is numbered from 0 because its first term is the
    trivial subset.
    """
    label = "gamma" if chain.direction == "descending" else "zeta"
    first = 1 if chain.direction == "descending" else 0
    by_level = {report.level: report for report in reports or []}
    lines = []
    for offset, term in enumerate(chain.terms):
        level = first + offset
        body = ",".join(f"({i},{j})" for i, j in sorted(term.pairs))
        line = f"{label} {level}: {{{body}}}"
        report = by_level.get(level)
        if report is not None and chain.direction == "descending":
            line += f" rank {report.rank}"
        lines.append(line)
    return lines
