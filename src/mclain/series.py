"""Structure theory: the central series and the center.

Everything here happens at the relation level and is then interpreted
in the group. The lower central series of the group is the bracket
series of the relation; the center is the set of elements supported on
the isolated pairs. Quotients by normal subsets, which are plain
coefficient deletion, sit beside the factorizations that lift their
cosets (``factorization.quotient_project``).
"""

from __future__ import annotations

from ._record import record
from .relations import (
    InvariantError,
    Relation,
    SubsetChain,
    _absorbs,
    _masks,
    _upper_rounds,
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

    Each round of the upper descent on delta's masks
    (``relations._upper_rounds``) is a step: it adjoins the pairs of what is
    left, R, that are a factor of no composite left (R_row[a] & D_row[b] and
    R_col[b] & D_col[a] are 0, with D delta's masks), the isolated pairs of
    the quotient by the last term. The quotient isomorphism is what lets the
    accumulated union stand in for centers of successive quotient groups.
    Each term is the last joined with the set of the round's pairs, decoded
    through delta's index, so the terms hold delta's pair objects; the last
    round completes delta, whose own pair set is the last term. Each
    term is checked to be normal at the round's node numbers, against masks
    of the term that grow by each round's bits; the previous term was normal
    at the others.
    """
    require_valid(delta)
    n, decode = len(delta._index.labels), delta._index.decode
    zeta, masks = frozenset(), _masks((), n)
    terms = [Relation._within(delta.nodes, zeta)]
    rounds = _upper_rounds(delta)
    for shed in rounds:
        if shed is rounds[-1]:  # the last round completes delta
            zeta = delta.pairs
        else:
            zeta = zeta | frozenset(decode(shed))
        if not _absorbs(shed, delta, _masks(shed, n, masks), normal=True):
            raise InvariantError("upper central series term failed the normality check")
        terms.append(Relation._within(delta.nodes, zeta))
    return SubsetChain("ascending", tuple(terms))


def format_chain_lines(
    chain: SubsetChain, reports: list[FactorReport] | None = None
) -> list[str]:
    """Deterministic report lines, one per chain term.

    Descending chains are numbered from 1 and may carry ranks; the
    ascending chain is numbered from 0 because its first term is the
    trivial subset.

    The union of the terms' pairs is sorted once and each pair formatted
    once; a term's body keeps, in that order, the pairs it holds.
    """
    label = "gamma" if chain.direction == "descending" else "zeta"
    first = 1 if chain.direction == "descending" else 0
    by_level = {report.level: report for report in reports or []}
    union = sorted(frozenset().union(*(term.pairs for term in chain.terms)))
    shown = [(pair, f"({pair[0]},{pair[1]})") for pair in union]
    lines = []
    for offset, term in enumerate(chain.terms):
        level = first + offset
        pairs = term.pairs
        body = ",".join([text for pair, text in shown if pair in pairs])
        line = f"{label} {level}: {{{body}}}"
        report = by_level.get(level)
        if report is not None and chain.direction == "descending":
            line += f" rank {report.rank}"
        lines.append(line)
    return lines
