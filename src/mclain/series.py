"""Structure theory: central series, the center, and quotients.

Everything here happens at the relation level and is then interpreted
in the group. The lower central series of the group is the bracket
series of the relation; the center is the set of elements supported on
the isolated pairs; quotients by normal subsets are computed by plain
coefficient deletion, which normality makes into a homomorphism.
"""

from __future__ import annotations

from ._record import record
from .elements import GroupElement, McLainGroup, _divide, _generators_times
from .relations import (
    Relation,
    SubsetChain,
    _absorbs,
    _closed_support,
    _masks,
    _numbered,
    _shed,
    difference,
    gamma_series,
    isolated,
    require_valid,
)
from .rings import Ring


@record
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
        support = Relation._within(delta.nodes, current.pairs - nxt.pairs)
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

    Each round of one descent on delta's masks (``relations._shed``) is a
    step: it adjoins the pairs of what is left, R, that are a factor of no
    composite left (R_row[a] & D_row[b] and R_col[b] & D_col[a] are 0, with
    D delta's masks), the isolated pairs of the quotient by the last term.
    The quotient isomorphism is what lets the accumulated union stand in for
    centers of successive quotient groups. A step is taken from R by set
    difference, so the terms hold delta's own pairs. Each term is checked to
    be normal at the round's node numbers, against masks of the term that
    grow by each round's bits; the previous term was normal at the others.
    """
    require_valid(delta)
    labels, _, rows, cols = delta._index
    stall = "upper central series stalled before exhausting the relation"
    zeta, left, masks = frozenset(), delta.pairs, _masks((), len(labels))
    terms = [Relation._within(delta.nodes, zeta)]
    for shed in _shed(_numbered(delta._succ), rows, cols, rows, cols, stall):
        rest = left.difference(delta._index.decode(shed))
        step, left = left - rest, rest
        zeta = zeta | step
        if not _absorbs(shed, delta, _masks(shed, len(labels), masks), normal=True):
            raise AssertionError("upper central series term failed the normality check")
        terms.append(Relation._within(delta.nodes, zeta))
    return SubsetChain("ascending", tuple(terms))


def quotient_project(g: GroupElement, gamma: Relation) -> GroupElement:
    """Delete the coefficients at a normal subset.

    The result lives in the group over the smaller relation; deletion
    is a surjective homomorphism whose kernel is exactly the elements
    supported inside gamma. Both relations have the same nodes, so the
    kept pair codes carry over as they are.
    """
    relation = g.group.relation
    target = McLainGroup(difference(relation, gamma), g.group.ring)
    doomed = {relation._codes[pair] for pair in gamma.pairs}
    kept = {code: c for code, c in g._coeffs.items() if code not in doomed}
    return GroupElement(target, kept)


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
    quotient form's payloads, in its closure's sorted order, multiplied in g's
    group, where the codes carry over. As gamma is normal, g r^-1 lies over
    gamma exactly when r^-1 g does: when it keeps no pair of the quotient."""
    from .factorization import ordered_factorization

    group, quotient = g.group, projected.group.relation
    arcs = sorted(_closed_support(quotient, projected._coeffs)[0])
    order = tuple(quotient._index.decode(arcs))
    form = ordered_factorization(projected, order)
    n, rows = len(quotient._index.labels), quotient._index.rows
    solved = [(x * n + y, form.coefficients[p].payload) for (x, y), p in zip(arcs, order)]
    lifted = _generators_times(group, reversed(solved), {})
    if any(rows[c // n] >> c % n & 1 for c in _divide(group, g._coeffs, lifted)):
        raise AssertionError("coset representative failed the membership check")
    return GroupElement(group, lifted)


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
