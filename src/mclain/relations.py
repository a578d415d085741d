"""Finite relations on labelled nodes, and the subset calculus built on them.

A relation is a finite set of ordered pairs over an explicit node set.
Two structural axioms make a relation usable as the index set of a group:

  irreflexivity   no pair (i, i) occurs;
  exchange        whenever (i,j), (j,k), (k,l), (i,l) are all present,
                  (i,k) is present exactly when (j,l) is.

Construction does not enforce either axiom, so that defective input can
be loaded and diagnosed; ``check_axioms`` reports every violation. All
group-level code validates before computing.

Subsets of a relation come in two strengths. A subset is closed when it
contains every composite (i,k) of its own pairs that the ambient
relation admits; closed subsets index subgroups. It is normal when it
additionally absorbs composition with ambient pairs on either side;
normal subsets index normal subgroups and quotients.

The axiom scan, the closures, the absorption tests, ``bracket``, the
maximal and minimal tests and both series descents run on one cached index
per relation, ``Relation._index``: each node's successor row and
predecessor column as an int mask, so a step is a few ``&`` tests instead
of lookups of label pairs. The same numbering keys the rows and targets of
the coefficient maps of group elements. The same pass over the pairs
that fills the masks fills each node's sorted successor numbers, the
index's ``succ``, which the axiom scan and the descents over a whole
relation read, and ``by_code``, each pair code's own pair object, which
holds exactly the relation's codes. The axiom scan walks the couples from a
pair only when two mask tests leave a node that could break exchange; on a
strict partial order none is left, so the scan costs one mask step per pair
(see ``Relation.axiom_report``). Below the public functions the calculus
works in node-number pairs only; labels cross each way on the relation that
a subset is tested against: ``Relation._encode`` refuses pairs outside it
and numbers and masks the rest, and ``Relation._from_arcs`` makes the
subset of the pairs a call found. ``_bracket_rounds`` is the one bracket
descent that ``_levels``, ``gamma_series``, ``ordered_factorization`` and
the coset lift read, and ``_upper_rounds`` the one upper descent; ``_shed``
runs both.

Every relation the calculus builds from pairs of a relation it already
holds (subsets, closures, brackets, series terms, differences) is made by
the private ``Relation._within``, which skips the endpoint check that
public construction runs: those pairs cannot leave the node set.
"""

from __future__ import annotations

import random
import re
from collections.abc import Collection, Iterable, Iterator, Mapping
from functools import cached_property
from typing import NamedTuple

from ._record import record

Pair = tuple[str, str]
Arc = tuple[int, int]  # a pair by the node numbers of a relation's index
Masks = tuple[list[int], list[int]]  # rows and columns, as in ``_Index``


class ParseError(ValueError):
    """A text surface failed to parse; the message carries a line number."""


class InvariantError(AssertionError):
    """A self-check failed: a result broke an invariant that a valid relation
    guarantees. An ``AssertionError``, so callers that catch one still do."""


@record
class ReflexiveViolation:
    pair: Pair

    def __str__(self) -> str:
        return f"reflexive pair ({self.pair[0]},{self.pair[1]})"


@record
class ExchangeViolation:
    """A quadruple i,j,k,l witnessing failure of the exchange axiom.

    All of (i,j), (j,k), (k,l), (i,l) are present, but exactly one of
    the two cross pairs (i,k), (j,l) is. ``present`` names the one that
    is there and ``absent`` the one that is missing, so the witness can
    be replayed directly against the pair set.
    """

    quadruple: tuple[str, str, str, str]
    present: Pair
    absent: Pair

    def __str__(self) -> str:
        i, j, k, l = self.quadruple
        return (
            f"exchange violation at quadruple ({i},{j},{k},{l}): "
            f"({self.present[0]},{self.present[1]}) present, "
            f"({self.absent[0]},{self.absent[1]}) absent"
        )


@record
class AxiomReport:
    valid: bool
    violations: tuple[object, ...]


class _Index(NamedTuple):
    """A relation's nodes numbered in sorted label order, with each node's
    successor row and predecessor column as one int mask: bit y of rows[x]
    and bit x of cols[y] are set when (labels[x], labels[y]) is a pair.
    succ[x] lists the set bits of rows[x], low to high.

    Because the numbers follow sorted labels, reading bits from low to high
    visits nodes, and so pairs, in sorted label order: scans on the masks
    report in the same order as scans over sorted label pairs. The masks
    are shared by every caller; a scan that clears bits copies them first,
    and no caller changes the successor lists.

    A pair's code is x*N + y, with x and y the numbers of its labels and
    N the node count. The pass that builds the index writes that format
    once, into ``by_code``, each code's pair object of the relation. A code
    is the relation's exactly when it is a key of ``by_code``, and codes
    decode by indexing it (``decode``, and the label edges of group
    elements), so every pair that the calculus or an element hands back is
    one of the relation's own. Sorted codes are sorted pairs. The numbering
    depends only on the node set, so a code means the same pair in every
    relation over the same nodes.
    """

    labels: tuple[str, ...]
    number: dict[str, int]
    rows: list[int]
    cols: list[int]
    succ: list[list[int]]
    by_code: dict[int, Pair]

    def decode(self, numbered: Iterable[Arc]) -> list[Pair]:
        """The pairs at node-number pairs."""
        n, by_code = len(self.labels), self.by_code
        return [by_code[x * n + y] for x, y in numbered]


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _masks(pairs: Iterable[Arc], n: int, masks: Masks | None = None) -> Masks:
    """The row and column masks of these node-number pairs over n nodes, or
    ``masks`` with the pairs' bits added in place."""
    rows, cols = masks or ([0] * n, [0] * n)
    for x, y in pairs:
        rows[x] |= 1 << y
        cols[y] |= 1 << x
    return rows, cols


@record
class Relation:
    """An immutable finite relation with an explicit node set.

    The node set may strictly contain the nodes touched by pairs; keeping
    it explicit lets set difference preserve isolated nodes. The relation
    calculus runs on its one cached ``_index`` of row and column masks and
    successor lists.

    ``Relation(nodes, pairs)`` freezes both collections, rejects a pair with
    an endpoint outside the node set and applies the label rule. The private
    ``_within`` skips both checks for frozensets that passed them, as
    ``fractions.Fraction._from_coprime_ints`` skips normalizing.
    """

    nodes: frozenset[str]
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for i, j in self.pairs:
            if i not in self.nodes or j not in self.nodes:
                raise ValueError(f"pair ({i},{j}) uses a node outside the node set")
        _require_label_rule(self.nodes)

    @classmethod
    def _within(cls, nodes: frozenset[str], pairs: frozenset[Pair]) -> "Relation":
        """The relation on frozensets whose pairs the caller knows to lie
        inside the nodes, made without the endpoint check."""
        self = object.__new__(cls)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "pairs", pairs)
        return self

    @cached_property
    def _index(self) -> _Index:
        """The index, built in one pass over the pairs that sets each pair's
        row and column bits, appends its target to the source's successor
        list and files the pair under its code; the lists are then sorted."""
        labels = tuple(sorted(self.nodes))
        number = {label: x for x, label in enumerate(labels)}
        n = len(labels)
        rows, cols, succ, by_code = [0] * n, [0] * n, [[] for _ in labels], {}
        for pair in self.pairs:
            x, y = number[pair[0]], number[pair[1]]
            rows[x] |= 1 << y
            cols[y] |= 1 << x
            succ[x].append(y)
            by_code[x * n + y] = pair
        for after in succ:
            after.sort()
        return _Index(labels, number, rows, cols, succ, by_code)

    def _encode(self, pairs: frozenset[Pair], name: str) -> tuple[list[Arc], Masks]:
        """The node-number pairs and masks, in the index, of a subset of the
        pairs; stray pairs are refused, naming ``name``."""
        if stray := pairs - self.pairs:
            raise ValueError(f"{name} is not a subset of the relation: {sorted(stray)}")
        number = self._index.number
        numbered = [(number[a], number[b]) for a, b in pairs]
        return numbered, _masks(numbered, len(number))

    def _from_arcs(self, arcs: Iterable[Arc]) -> "Relation":
        """The subset of the pairs at these node-number pairs of the index."""
        return Relation._within(self.nodes, frozenset(self._index.decode(arcs)))

    @cached_property
    def _arcs(self) -> dict[Pair, Arc]:
        """Each pair's node-number pair in the index, built when the first
        group element over the relation needs it: the pair's row and
        target in a coefficient row map."""
        n = len(self._index.labels)
        return {pair: divmod(code, n) for code, pair in self._index.by_code.items()}

    @cached_property
    def _quotients(self) -> dict[frozenset[Pair], "Relation"]:
        """The differences by normal subsets (``difference``) made so far, by
        the subset's pairs: each keeps its own index and axiom report."""
        return {}

    @cached_property
    def axiom_report(self) -> AxiomReport:
        """Both axioms diagnosed once, every violation reported in a fixed order.

        The exchange scan walks composable couples (i,j), (j,k) in sorted
        order on the index. With S the successor rows, the l in
        common = S[i] & S[k] break the axiom when they lie outside S[j] and
        (i,k) is present, or inside S[j] and (i,k) is absent.

        A source (i,j) is walked only when its risk mask is nonzero:
        S[i] & T[j], with T[j] the union of the rows of j's successors, built
        once per scan, and also & ~S[j] when S[j] lies inside S[i]. This is
        exact: every l the walk flags lies in S[i] & S[k] for some k in S[j],
        so in S[i] & T[j]; and when S[j] lies inside S[i], every such k is
        in S[i], (i,k) is present and only l outside S[j] are flagged. A
        strict partial order skips every source, as transitivity puts T[j]
        inside S[j] and S[j] inside S[i], so its scan costs one mask step
        per pair instead of one per couple.
        """
        index = self._index
        labels, rows, succ = index.labels, index.rows, index.succ
        violations: list[object] = [
            ReflexiveViolation((label, label))
            for x, label in enumerate(labels)
            if rows[x] >> x & 1
        ]
        reach = []  # T: the union of the rows of each node's successors
        for after in succ:
            union = 0
            for z in after:
                union |= rows[z]
            reach.append(union)
        for x, after_x in enumerate(rows):
            for y in succ[x]:
                after_y = rows[y]
                risk = after_x & reach[y]
                if not after_y & ~after_x:
                    risk &= ~after_y
                if not risk:
                    continue
                for z in succ[y]:
                    common = after_x & rows[z]
                    if not common:
                        continue
                    has_xz = after_x >> z & 1
                    bad = common & ~after_y if has_xz else common & after_y
                    if not bad:
                        continue
                    i, j, k = labels[x], labels[y], labels[z]
                    for w in _bits(bad):
                        l = labels[w]
                        present, absent = ((i, k), (j, l)) if has_xz else ((j, l), (i, k))
                        violations.append(ExchangeViolation((i, j, k, l), present, absent))
        return AxiomReport(not violations, tuple(violations))

    @cached_property
    def _levels(self) -> tuple[tuple[int, ...], ...]:
        """Each node's targets by bracket depth: entry x lists the numbers y
        of the pairs (x,y), shallow first.

        The depth of a pair is the round of ``_bracket_rounds`` of the
        relation with itself that sheds it (gamma_k less gamma_(k+1), as
        ``gamma_series`` reads it). A composite (x,z) = (x,y)∘(y,z) lies at
        a strictly deeper level than (x,y), so y comes before z in row x. A
        decomposition cycle, which only an axiom breaker has, raises the
        descent's ``InvariantError``. The right division of elements, their
        only reader, builds them when it first needs them.
        """
        levels: list[list[int]] = [[] for _ in self._index.labels]
        for shed in _bracket_rounds(*_closed_subset(self.pairs, self, "relation")):
            for x, y in shed:
                levels[x].append(y)
        return tuple(map(tuple, levels))

    def subset(self, pairs: Iterable[Pair]) -> "Relation":
        """A sub-relation over the same node set."""
        chosen = frozenset(pairs)
        stray = chosen - self.pairs
        if stray:
            raise ValueError(f"pairs not in the relation: {sorted(stray)}")
        return Relation._within(self.nodes, chosen)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(sorted(self.pairs))

    def __repr__(self) -> str:
        return f"Relation({sorted(self.pairs)})"


def spanned_nodes(omega: Relation) -> frozenset[str]:
    """Nodes appearing as a source or target of some pair."""
    out: set[str] = set()
    for i, j in omega.pairs:
        out.add(i)
        out.add(j)
    return frozenset(out)


def check_axioms(delta: Relation) -> AxiomReport:
    """Diagnose both axioms: the relation's cached ``axiom_report``."""
    return delta.axiom_report


def require_valid(delta: Relation) -> None:
    report = delta.axiom_report
    if not report.valid:
        head = "; ".join(str(v) for v in report.violations[:3])
        more = len(report.violations) - 3
        if more > 0:
            head += f"; and {more} more"
        raise ValueError(f"relation violates the structural axioms: {head}")


def is_closed(sub: Relation, delta: Relation) -> bool:
    """Does sub contain every composite of its own pairs that delta admits?
    Absorption with sub as the partners, on sub's masks in delta's index."""
    pairs, masks = delta._encode(sub.pairs, "subset")
    return _absorbs(pairs, delta, masks, normal=False)


def is_normal(sub: Relation, delta: Relation) -> bool:
    """Does sub absorb one-sided composition with ambient pairs?

    Two absorption rules: for (i,j) in sub, any ambient (j,k) with
    (i,k) ambient forces (i,k) into sub, and any ambient (k,i) with
    (k,j) ambient forces (k,j) into sub. Normality implies closedness.
    """
    pairs, masks = delta._encode(sub.pairs, "subset")
    return _absorbs(pairs, delta, masks, normal=True)


def _absorbs(pairs: Iterable[Arc], delta: Relation, sub: Masks, normal: bool) -> bool:
    """Does sub hold each composite in delta of these node-number pairs with a
    partner, on either side? sub is a (rows, cols) mask pair in delta's
    numbering, and the partners are delta's pairs when ``normal``, else sub's.
    One mask test per pair: (x,y) leaks when P_row[y] & D_row[x] or
    P_col[x] & D_col[y] has a bit outside sub's row x or column y."""
    d_rows, d_cols = delta._index.rows, delta._index.cols
    s_rows, s_cols = sub
    p_rows, p_cols = (d_rows, d_cols) if normal else sub
    for x, y in pairs:
        if p_rows[y] & d_rows[x] & ~s_rows[x] or p_cols[x] & d_cols[y] & ~s_cols[y]:
            return False
    return True


def closure(omega: Relation, delta: Relation) -> Relation:
    """The smallest closed subset of delta containing omega.

    Saturation under composition with the pairs collected so far; every
    added pair keeps both endpoints among the nodes omega already
    touches, so the result stays finite and inside delta restricted to
    those nodes.
    """
    pairs, masks = delta._encode(omega.pairs, "subset")
    _saturate(pairs, delta, masks, closed=True)
    return delta._from_arcs(pairs)


def normal_closure(omega: Relation, delta: Relation) -> Relation:
    """The smallest normal subset of delta containing omega.

    Saturation under composition with any pair of delta, on either side.
    """
    pairs, masks = delta._encode(omega.pairs, "subset")
    _saturate(pairs, delta, masks, closed=False)
    return delta._from_arcs(pairs)


def _saturate(pairs: list[Arc], delta: Relation, masks: Masks, closed: bool) -> None:
    """Worklist saturation in place of distinct node-number pairs of delta and
    their masks in delta's numbering, under the composites delta admits.

    A visited (a,b) meets its partners on both sides. Its new right
    composites (a,k) are the bits of P_row[b] & D_row[a] less the current
    row a, and its new left composites (k,b) those of P_col[a] & D_col[b]
    less the current column b, where D is delta and P the partners. For the
    closure the partners are the pairs collected so far; a partner collected
    later meets (a,b) when it is visited in turn. For the normal closure
    every pair of delta is a partner.
    """
    d_rows, d_cols = delta._index.rows, delta._index.cols
    rows, cols = masks
    p_rows, p_cols = masks if closed else (d_rows, d_cols)
    for x, y in pairs:  # also visits the pairs appended on the way
        right = p_rows[y] & d_rows[x] & ~rows[x]
        if right:
            rows[x] |= right
            for z in _bits(right):
                cols[z] |= 1 << x
                pairs.append((x, z))
        left = p_cols[x] & d_cols[y] & ~cols[y]
        if left:
            cols[y] |= left
            for z in _bits(left):
                rows[z] |= 1 << y
                pairs.append((z, y))


def _closed_support(
    delta: Relation, rows: Mapping[int, Iterable[int]]
) -> tuple[list[Arc], Masks]:
    """The node-number pairs and masks of the least closed subset holding
    the pairs (x,y) with y in rows[x], as in a coefficient row map."""
    pairs = [(x, y) for x, after in rows.items() for y in after]
    masks = _masks(pairs, len(delta._index.labels))
    _saturate(pairs, delta, masks, closed=True)
    return pairs, masks


def bracket(sub1: Relation, sub2: Relation, delta: Relation) -> Relation:
    """All delta pairs obtained by composing one pair from each subset.

    Symmetric in its two arguments: (i,k) belongs to the bracket when
    some middle node j gives (i,j) in one subset and (j,k) in the other.
    For each (i,j) of sub1, the bits of S_row[j] & D_row[i] are the (i,k)
    and those of S_col[i] & D_col[j] the (k,j), with S sub2's masks in
    delta's index, built for this call, and D delta's.
    """
    pairs, _ = delta._encode(sub1.pairs, "first subset")
    _, (s_rows, s_cols) = delta._encode(sub2.pairs, "second subset")
    d_rows, d_cols = delta._index.rows, delta._index.cols
    out: set[Arc] = set()
    for x, y in pairs:
        out.update((x, z) for z in _bits(s_rows[y] & d_rows[x]))
        out.update((z, y) for z in _bits(s_cols[x] & d_cols[y]))
    return delta._from_arcs(out)


@record
class SubsetChain:
    """A descending or ascending sequence of subsets of one relation."""

    direction: str
    terms: tuple[Relation, ...]

    def __post_init__(self) -> None:
        if self.direction not in ("descending", "ascending"):
            raise ValueError(f"bad chain direction: {self.direction!r}")

    def __len__(self) -> int:
        return len(self.terms)


def _numbered(succ: list[list[int]]) -> list[Arc]:
    """The pairs (x,y) of successor lists (``_Index.succ``), in sorted order."""
    return [(x, y) for x, after in enumerate(succ) for y in after]


def _shed(live: list[Arc], masks: Masks, partners: Masks, stall: str) -> list[list[Arc]]:
    """The pairs (x,y), by node number, of a descent from the term with these
    masks, by the round that sheds them, each round in the order of ``live``.

    The caller passes the term's pairs as ``live``: for a whole relation in
    sorted order from the index's ``succ``, so its rows are not expanded
    again. A live (x,y) stays for the next round while T_row[x] & right[y]
    or T_col[y] & left[x], where T is the live term and (right, left) the
    partners. T starts as a copy of the masks, and each round's shed bits
    are cleared from it in place. Only the live pairs are tested. A nonempty
    round that sheds nothing would repeat forever; only an axiom breaker has
    one, and it raises ``InvariantError(stall)``.
    """
    rows, cols = map(list, masks)
    right, left = partners
    rounds = []
    while live:
        kept, shed = [], []
        for entry in live:
            x, y = entry
            if rows[x] & right[y] or cols[y] & left[x]:
                kept.append(entry)
            else:
                shed.append(entry)
        if not shed:
            raise InvariantError(stall)
        for x, y in shed:
            rows[x] ^= 1 << y
            cols[y] ^= 1 << x
        rounds.append(shed)
        live = kept
    return rounds


def _closed_subset(
    gamma: frozenset[Pair], delta: Relation, subject: str
) -> tuple[list[Arc], Masks]:
    """The node-number pairs and masks in delta's index of closed gamma, a
    frozenset of delta's pairs. Gamma equal to delta's pairs gets delta's own
    masks, which no caller may change, and its pairs in sorted order from
    ``succ``; a proper subset gets its own masks and its pairs in no order.
    A gamma that is not closed is refused, naming ``subject``."""
    index = delta._index
    if gamma == delta.pairs:  # gamma is delta: share its masks
        return _numbered(index.succ), (index.rows, index.cols)
    live, masks = delta._encode(gamma, "subset")
    if not _absorbs(live, delta, masks, normal=False):
        raise ValueError(f"{subject} needs a closed subset")
    return live, masks


def _bracket_rounds(live: list[Arc], masks: Masks) -> list[list[Arc]]:
    """The pairs (x,y) of a closed subset G, given as the node-number pairs
    ``live`` and G's masks, by the round of the bracket descent
    (``gamma_series``) that sheds them, each round in the order of ``live``:
    (a,c) of the term T stays while T_row[a] & G_col[c] or G_row[a] &
    T_col[c]. Only an axiom breaker's descent, on a cycle of decompositions,
    never ends."""
    rows, cols = masks
    return _shed(live, masks, (cols, rows), "bracket series failed to terminate")


def _upper_rounds(delta: Relation) -> list[list[Arc]]:
    """The pairs (x,y) of delta, by node number, by the round of the upper
    descent (``series.upper_central_series``) that sheds them, each round in
    sorted order: (a,b) of the term T stays while T_row[a] & D_row[b] or
    T_col[b] & D_col[a], with D delta's masks, so a round sheds the pairs of
    T that are a factor of no composite in T. Only an axiom breaker has a
    round that sheds nothing."""
    index = delta._index
    masks = index.rows, index.cols
    stall = "upper central series stalled before exhausting the relation"
    return _shed(_numbered(index.succ), masks, masks, stall)


def gamma_series(gamma: Relation, delta: Relation) -> SubsetChain:
    """Iterated bracket with gamma, down to the first empty subset.

    Terms are gamma, [gamma, gamma], [[gamma, gamma], gamma], ...; each
    term contains the next because gamma is closed. Each term is the last
    less a round of ``_bracket_rounds``, made by ``Relation._within``.
    """
    decode = delta._index.decode
    terms, term = [gamma], gamma.pairs
    for shed in _bracket_rounds(*_closed_subset(gamma.pairs, delta, "gamma series")):
        term = term.difference(decode(shed))
        terms.append(Relation._within(delta.nodes, term))
    return SubsetChain("descending", tuple(terms))


def isolated(delta: Relation) -> Relation:
    """Pairs that compose with nothing: no right extension (j,k) with
    (i,k) present, and no left extension (l,i) with (l,j) present: with D
    delta's masks, D_row[x] & D_row[y] and D_col[x] & D_col[y] are 0."""
    index = delta._index
    rows, cols, pairs = index.rows, index.cols, _numbered(index.succ)
    alone = [(x, y) for x, y in pairs if not rows[x] & rows[y] | cols[x] & cols[y]]
    return delta._from_arcs(alone)


def difference(delta: Relation, gamma: Relation) -> Relation:
    """Remove a normal subset; the result satisfies both axioms again.

    Normality of gamma is exactly what makes coefficient deletion a
    homomorphism, so it is demanded here rather than assumed. The result is
    kept on delta (``Relation._quotients``, by gamma's pairs), so each
    quotient is tested for normality, indexed and axiom-scanned once; a
    subset that is not normal is refused on every call.
    """
    key, quotients = gamma.pairs, delta._quotients
    out = quotients.get(key)
    if out is None:
        if not is_normal(gamma, delta):
            raise ValueError("can only remove a normal subset")
        out = quotients[key] = Relation._within(delta.nodes, delta.pairs - key)
    return out


def has_maximal(omega: Relation, delta: Relation) -> bool:
    """Is there a pair (i,j) in omega with no (j,k) in omega such that
    (i,k) lies in delta?"""
    return _has_unextended(omega, delta, maximal=True)


def has_minimal(omega: Relation, delta: Relation) -> bool:
    """Dual of has_maximal: a pair (i,j) in omega with no (k,i) in omega
    such that (k,j) lies in delta."""
    return _has_unextended(omega, delta, maximal=False)


def _has_unextended(omega: Relation, delta: Relation, maximal: bool) -> bool:
    """Is some pair of omega without a composite in delta with a pair of
    omega on its right (maximal) or on its left (not maximal)? With O
    omega's masks in delta's index and D delta's, (i,j) has none when
    O_row[j] & D_row[i] is 0, or O_col[i] & D_col[j] for minimality."""
    pairs, (o_rows, o_cols) = delta._encode(omega.pairs, "subset")
    if not pairs:
        kind = "maximality" if maximal else "minimality"
        raise ValueError(f"{kind} is about nonempty subsets")
    d_rows, d_cols = delta._index.rows, delta._index.cols
    for x, y in pairs:
        if not (o_rows[y] & d_rows[x] if maximal else o_cols[x] & d_cols[y]):
            return True
    return False


# ---------------------------------------------------------------------------
# builders


def from_pairs(pairs: Iterable[Pair], nodes: Iterable[str] = ()) -> Relation:
    """The relation on the given pairs, over their nodes and ``nodes``.

    Labels go through ``str`` and must follow the label rule below, so
    that every relation built here prints and parses back.
    """
    pair_set = frozenset((str(i), str(j)) for i, j in pairs)
    node_set = set(str(n) for n in nodes)
    for i, j in pair_set:
        node_set.add(i)
        node_set.add(j)
    _require_label_rule(node_set)
    return Relation._within(frozenset(node_set), pair_set)


def chain(m: int) -> Relation:
    """All pairs (i, j) with 1 <= i < j <= m: a strict total order."""
    if m < 1:
        raise ValueError("chain needs at least one node")
    nodes = [str(i) for i in range(1, m + 1)]
    pairs = [
        (str(i), str(j)) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    ]
    return from_pairs(pairs, nodes)


def ngon(n: int) -> Relation:
    """Steps of size one and two around a cycle of n nodes.

    The edge pairs (i, i+1) admit no maximal or minimal element, which
    is what the obstruction demonstration exploits. Needs n >= 4; below
    that the two step sizes collide.
    """
    if n < 4:
        raise ValueError("ngon needs at least four nodes")
    return from_pairs(ngon_edges(n) + ngon_diagonals(n))


def ngon_edges(n: int) -> tuple[Pair, ...]:
    return tuple((str(i), str((i + 1) % n)) for i in range(n))


def ngon_diagonals(n: int) -> tuple[Pair, ...]:
    return tuple((str(i), str((i + 2) % n)) for i in range(n))


def _random_nodes(
    seed: int, node_count: int, density: float
) -> tuple[random.Random, list[str]]:
    """The seeded generator and the nodes 1..node_count of a random builder."""
    if node_count < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return random.Random(seed), [str(i) for i in range(1, node_count + 1)]


def random_relation(
    seed: int,
    node_count: int,
    density: float,
    max_attempts: int = 1000,
) -> tuple[Relation, int]:
    """Rejection-sample a valid relation; returns it with the rejection count.

    Candidate digraphs draw each non-reflexive pair independently with
    the given density; candidates failing the axioms are rejected. Gives
    up after max_attempts candidates.
    """
    rng, nodes = _random_nodes(seed, node_count, density)
    candidates = [(i, j) for i in nodes for j in nodes if i != j]
    candidates.sort()
    rejections = 0
    for _ in range(max_attempts):
        pairs = [p for p in candidates if rng.random() < density]
        candidate = from_pairs(pairs, nodes)
        if candidate.axiom_report.valid:
            return candidate, rejections
        rejections += 1
    raise ValueError(
        f"no valid relation found in {max_attempts} attempts "
        f"(node_count={node_count}, density={density})"
    )


def random_pruned_order(seed: int, node_count: int, density: float) -> Relation:
    """A random strict partial order with a random normal subset removed.

    Strict partial orders satisfy both axioms, and removing a normal
    subset preserves them, so this builder never rejects.
    """
    rng, nodes = _random_nodes(seed, node_count, density)
    ranked = list(nodes)
    rng.shuffle(ranked)
    forward = [
        (ranked[a], ranked[b])
        for a in range(node_count)
        for b in range(a + 1, node_count)
    ]
    total = from_pairs(forward, nodes)
    steps = [pair for pair in forward if rng.random() < density]
    # inside a total order the closed subsets are exactly the transitive
    # ones, so the closure of the sampled steps is a strict order
    order = closure(total.subset(steps), total)
    seeds = [p for p in sorted(order.pairs) if rng.random() < 0.3]
    doomed = normal_closure(order.subset(seeds), order)
    return difference(order, doomed)


# ---------------------------------------------------------------------------
# text format
#
#   # comment ............ ignored to end of line
#   i j .................. the pair (i, j)
#   node k ............... declares node k even if no pair touches it
#
# Serialization lists bare nodes first, then pairs, each sorted, so the
# format round-trips byte for byte.
#
# The label rule: a label is nonempty, is not the reserved word "node", is
# printable (a stray U+FEFF is not) and contains no whitespace and none of
# _LABEL_PUNCTUATION, which the expression grammar, printed normal forms and
# comments use to delimit labels. The text parsers, from_pairs and Relation
# apply it, so every label a relation holds prints and parses back.

_LABEL_PUNCTUATION = "*(),;[]+#"
_LABEL_BREAK = re.compile(r"[\s" + re.escape(_LABEL_PUNCTUATION) + "]")


def _label_fault(label: object) -> str | None:
    """How ``label`` breaks the label rule, or None if it follows it."""
    if not isinstance(label, str):
        return f"label {label!r} is not a string; labels are strings"
    if not label:
        return "label '' is empty; labels must be nonempty"
    if label == "node":
        return "label 'node' is reserved for node lines"
    bad = _LABEL_BREAK.findall(label)
    if bad:
        return (
            f"label {label!r} contains {''.join(sorted(set(bad)))!r}; labels "
            f"may not contain whitespace or any of {_LABEL_PUNCTUATION!r}"
        )
    if not label.isprintable():
        return f"label {label!r} contains a character that does not print"
    return None


def _require_label_rule(labels: Collection[str]) -> None:
    """Raise a ValueError naming a label that breaks the rule."""
    try:  # one scan over all labels; a label is looked at alone only on failure
        joined = "".join(labels)
        clean = joined.isprintable() and not _LABEL_BREAK.search(joined)
        if clean and {"", "node"}.isdisjoint(labels):
            return
    except TypeError:  # a label that is not a string
        pass
    raise ValueError(next(filter(None, map(_label_fault, sorted(labels, key=str)))))


def _pair_lines(text: str, node_lines: bool) -> Iterator[list[str]]:
    """The labels of each line of a pair file, ['i', 'j'] or, for a node line
    'node k' where ``node_lines`` allows one, ['k']. Errors name the line."""
    expected = "'i j' or 'node k'" if node_lines else "'i j'"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if node_lines and tokens[0] == "node":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: node line needs exactly one label")
            tokens = tokens[1:]
        elif len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected {expected}, got {raw.strip()!r}")
        for label in tokens:
            fault = _label_fault(label)
            if fault:
                raise ParseError(f"line {lineno}: {fault}")
        yield tokens


def parse_relation_text(text: str) -> Relation:
    nodes: set[str] = set()
    pairs: set[Pair] = set()
    for labels in _pair_lines(text, node_lines=True):
        nodes.update(labels)
        if len(labels) == 2:
            pairs.add((labels[0], labels[1]))
    return Relation._within(frozenset(nodes), frozenset(pairs))


def _read_text(path: str) -> str:
    """An input file's text, read as UTF-8 less a leading byte-order mark."""
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


def parse_relation_file(path: str) -> Relation:
    return parse_relation_text(_read_text(path))


def format_relation(delta: Relation) -> str:
    touched = spanned_nodes(delta)
    lines = [f"node {n}" for n in sorted(delta.nodes - touched)]
    lines += [f"{i} {j}" for i, j in sorted(delta.pairs)]
    return "\n".join(lines) + ("\n" if lines else "")
