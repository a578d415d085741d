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

The axiom scan, the closures, the absorption tests and both series
descents run on one cached index per relation, ``Relation._index``: each
node's successor row and predecessor column as an int mask, so a step is
a few ``&`` tests instead of lookups of label pairs. A subset is scanned
as masks in the numbering of the relation it is tested against.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, Iterator, NamedTuple

Pair = tuple[str, str]


class ParseError(ValueError):
    """A text surface failed to parse; the message carries a line number."""


@dataclass(frozen=True)
class ReflexiveViolation:
    pair: Pair

    def __str__(self) -> str:
        return f"reflexive pair ({self.pair[0]},{self.pair[1]})"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class AxiomReport:
    valid: bool
    violations: tuple[object, ...]


class _Index(NamedTuple):
    """A relation's nodes numbered in sorted label order, with each node's
    successor row and predecessor column as one int mask: bit y of rows[x]
    and bit x of cols[y] are set when (labels[x], labels[y]) is a pair.

    Because the numbers follow sorted labels, reading bits from low to high
    visits nodes, and so pairs, in sorted label order: scans on the masks
    report in the same order as scans over sorted label pairs. The masks
    are shared by every caller; a scan that clears bits copies them first.
    """

    labels: tuple[str, ...]
    number: dict[str, int]
    rows: list[int]
    cols: list[int]


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _masks(
    pairs: Iterable[Pair],
    number: dict[str, int],
    masks: tuple[list[int], list[int]] | None = None,
) -> tuple[list[int], list[int]]:
    """The row and column masks of these pairs in a numbering, or ``masks``
    with the pairs' bits added in place."""
    rows, cols = masks or ([0] * len(number), [0] * len(number))
    for a, b in pairs:
        x, y = number[a], number[b]
        rows[x] |= 1 << y
        cols[y] |= 1 << x
    return rows, cols


@dataclass(frozen=True)
class Relation:
    """An immutable finite relation with an explicit node set.

    The node set may strictly contain the nodes touched by pairs; keeping
    it explicit lets set difference preserve isolated nodes. The relation
    calculus runs on its one cached ``_index`` of row and column masks.
    """

    nodes: frozenset[str]
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if i not in self.nodes or j not in self.nodes:
                raise ValueError(f"pair ({i},{j}) uses a node outside the node set")

    @cached_property
    def _index(self) -> _Index:
        labels = tuple(sorted(self.nodes))
        number = {label: x for x, label in enumerate(labels)}
        return _Index(labels, number, *_masks(self.pairs, number))

    @cached_property
    def by_first(self) -> dict[str, tuple[Pair, ...]]:
        index: dict[str, list[Pair]] = {}
        for pair in sorted(self.pairs):
            index.setdefault(pair[0], []).append(pair)
        return {k: tuple(v) for k, v in index.items()}

    @cached_property
    def by_second(self) -> dict[str, tuple[Pair, ...]]:
        index: dict[str, list[Pair]] = {}
        for pair in sorted(self.pairs):
            index.setdefault(pair[1], []).append(pair)
        return {k: tuple(v) for k, v in index.items()}

    @cached_property
    def axiom_report(self) -> AxiomReport:
        """Both axioms diagnosed once, every violation reported in a fixed order.

        The exchange scan walks composable couples (i,j), (j,k) in sorted
        order on the index. With S the successor rows, the l in
        common = S[i] & S[k] break the axiom when they lie outside S[j] and
        (i,k) is present, or inside S[j] and (i,k) is absent.
        """
        labels, _, rows, _ = self._index
        violations: list[object] = [
            ReflexiveViolation((label, label))
            for x, label in enumerate(labels)
            if rows[x] >> x & 1
        ]
        succ = [_bits(row) for row in rows]
        for x, after_x in enumerate(rows):
            for y in succ[x]:
                after_y = rows[y]
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
    def _levels(self) -> tuple[tuple[Pair, ...], ...]:
        """The pairs by exact bracket depth, shallow first, each level sorted.

        Level k is gamma_k less gamma_(k+1) of the relation with itself: the
        pairs ``gamma_series`` sheds in its k-th round of the mask descent. A
        composite p = q∘r lies at a strictly deeper level than q and than r.
        A decomposition cycle, which only an axiom breaker has, raises the
        descent's ``AssertionError``.
        """
        labels, _, rows, cols = self._index
        rounds = _shed(rows, cols, cols, rows, labels, "bracket series failed to terminate")
        return tuple(map(tuple, rounds))

    def subset(self, pairs: Iterable[Pair]) -> "Relation":
        """A sub-relation over the same node set."""
        chosen = frozenset(pairs)
        stray = chosen - self.pairs
        if stray:
            raise ValueError(f"pairs not in the relation: {sorted(stray)}")
        return Relation(self.nodes, chosen)

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


def _require_subset(sub: Relation, delta: Relation, name: str) -> None:
    stray = sub.pairs - delta.pairs
    if stray:
        raise ValueError(f"{name} is not a subset of the relation: {sorted(stray)}")


def is_closed(sub: Relation, delta: Relation) -> bool:
    """Does sub contain every composite of its own pairs that delta admits?
    Absorption with sub as the partners, on sub's masks in delta's index."""
    _require_subset(sub, delta, "subset")
    return _absorbs(sub.pairs, delta, _masks(sub.pairs, delta._index.number), normal=False)


def is_normal(sub: Relation, delta: Relation) -> bool:
    """Does sub absorb one-sided composition with ambient pairs?

    Two absorption rules: for (i,j) in sub, any ambient (j,k) with
    (i,k) ambient forces (i,k) into sub, and any ambient (k,i) with
    (k,j) ambient forces (k,j) into sub. Normality implies closedness.
    """
    _require_subset(sub, delta, "subset")
    return _absorbs(sub.pairs, delta, _masks(sub.pairs, delta._index.number), normal=True)


def _absorbs(
    pairs: Iterable[Pair], delta: Relation, sub: tuple[list[int], list[int]], normal: bool
) -> bool:
    """Does sub hold each composite in delta of these pairs with a partner,
    on either side? sub is a (rows, cols) mask pair in delta's numbering, and
    the partners are delta's pairs when ``normal``, else sub's. One mask test
    per pair: (x,y) leaks when P_row[y] & D_row[x] or P_col[x] & D_col[y]
    has a bit outside sub's row x or column y. With sub empty and delta as
    partners, the pairs that pass are the isolated ones."""
    _, number, d_rows, d_cols = delta._index
    s_rows, s_cols = sub
    p_rows, p_cols = (d_rows, d_cols) if normal else sub
    for a, b in pairs:
        x, y = number[a], number[b]
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
    _require_subset(omega, delta, "subset")
    return Relation(delta.nodes, frozenset(_saturate(omega.pairs, delta, closed=True)[0]))


def normal_closure(omega: Relation, delta: Relation) -> Relation:
    """The smallest normal subset of delta containing omega.

    Saturation under composition with any pair of delta, on either side.
    """
    _require_subset(omega, delta, "subset")
    return Relation(delta.nodes, frozenset(_saturate(omega.pairs, delta, closed=False)[0]))


def _saturate(
    pairs: Iterable[Pair], delta: Relation, closed: bool
) -> tuple[set[Pair], list[int], list[int]]:
    """Worklist saturation of pairs of delta under the composites delta admits:
    the saturated pairs with their row and column masks in delta's numbering.

    A popped (a,b) meets its partners on both sides. Its new right
    composites (a,k) are the bits of P_row[b] & D_row[a] less the current
    row a, and its new left composites (k,b) those of P_col[a] & D_col[b]
    less the current column b, where D is delta and P the partners. For the
    closure the partners are the pairs collected so far; a partner collected
    later meets (a,b) when it is popped in turn. For the normal closure
    every pair of delta is a partner.
    """
    labels, number, d_rows, d_cols = delta._index
    found = set(pairs)
    rows, cols = _masks(found, number)
    p_rows, p_cols = (rows, cols) if closed else (d_rows, d_cols)
    work = [(number[a], number[b]) for a, b in found]
    while work:
        x, y = work.pop()
        right = p_rows[y] & d_rows[x] & ~rows[x]
        if right:
            rows[x] |= right
            for z in _bits(right):
                cols[z] |= 1 << x
                found.add((labels[x], labels[z]))
                work.append((x, z))
        left = p_cols[x] & d_cols[y] & ~cols[y]
        if left:
            cols[y] |= left
            for z in _bits(left):
                rows[z] |= 1 << y
                found.add((labels[z], labels[y]))
                work.append((z, y))
    return found, rows, cols


def bracket(sub1: Relation, sub2: Relation, delta: Relation) -> Relation:
    """All delta pairs obtained by composing one pair from each subset.

    Symmetric in its two arguments: (i,k) belongs to the bracket when
    some middle node j gives (i,j) in one subset and (j,k) in the other.
    Only sub2 is indexed, so pass the smaller or throwaway subset as sub1.
    """
    _require_subset(sub1, delta, "first subset")
    _require_subset(sub2, delta, "second subset")
    out: set[Pair] = set()
    for i, j in sub1.pairs:
        for _, k in sub2.by_first.get(j, ()):
            if (i, k) in delta.pairs:
                out.add((i, k))
        for k, _ in sub2.by_second.get(i, ()):
            if (k, j) in delta.pairs:
                out.add((k, j))
    return Relation(delta.nodes, frozenset(out))


@dataclass(frozen=True)
class SubsetChain:
    """A descending or ascending sequence of subsets of one relation."""

    direction: str
    terms: tuple[Relation, ...]

    def __post_init__(self) -> None:
        if self.direction not in ("descending", "ascending"):
            raise ValueError(f"bad chain direction: {self.direction!r}")

    def __len__(self) -> int:
        return len(self.terms)


def _shed(
    rows: list[int],
    cols: list[int],
    right: list[int],
    left: list[int],
    labels: tuple[str, ...],
    stall: str,
) -> list[list[Pair]]:
    """The pairs of a descent from the term with these masks, by the round
    that sheds them, each round in sorted order.

    A live (x,y) stays for the next round while T_row[x] & right[y] or
    T_col[y] & left[x], where T is the live term. T starts as a copy of
    rows and cols, and each round's shed bits are cleared from it in place.
    Only the live pairs are tested. A nonempty round that sheds nothing
    would repeat forever; only an axiom breaker has one, and it raises
    ``AssertionError(stall)``.
    """
    live = [
        (x, y, (labels[x], labels[y]))
        for x in compress(range(len(rows)), rows)
        for y in _bits(rows[x])
    ]
    rows, cols = list(rows), list(cols)
    rounds = []
    while live:
        kept, shed = [], []
        for entry in live:
            x, y, _ = entry
            if rows[x] & right[y] or cols[y] & left[x]:
                kept.append(entry)
            else:
                shed.append(entry)
        if not shed:
            raise AssertionError(stall)
        for x, y, _ in shed:
            rows[x] ^= 1 << y
            cols[y] ^= 1 << x
        rounds.append([p for _, _, p in shed])
        live = kept
    return rounds


def gamma_series(gamma: Relation, delta: Relation) -> SubsetChain:
    """Iterated bracket with gamma, down to the first empty subset.

    Terms are gamma, [gamma, gamma], [[gamma, gamma], gamma], ...; each
    term contains the next because gamma is closed, so a pair (a,c) of the
    term T stays in the next one while T_row[a] & G_col[c] or
    G_row[a] & T_col[c], with G gamma's masks in delta's index: one of its
    factors in gamma lies in T. Only an axiom breaker, with a cycle of
    decompositions, has a series that never ends.
    """
    _require_subset(gamma, delta, "subset")
    labels, number, d_rows, d_cols = delta._index
    if len(gamma.pairs) == len(delta.pairs):  # gamma is delta: share its masks
        masks = d_rows, d_cols
    else:
        masks = _masks(gamma.pairs, number)
        if not _absorbs(gamma.pairs, delta, masks, normal=False):
            raise ValueError("gamma series needs a closed subset")
    g_rows, g_cols = masks
    stall = "bracket series failed to terminate"
    rounds = _shed(g_rows, g_cols, g_cols, g_rows, labels, stall)
    terms, term = [gamma], gamma.pairs
    for shed in rounds:
        term = term.difference(shed)
        terms.append(Relation(delta.nodes, term))
    return SubsetChain("descending", tuple(terms))


def _upper_remainders(delta: Relation) -> Iterator[frozenset]:
    """delta less each term of its upper central series, from the empty term
    up: a pair (a,b) of the remainder R stays while R_row[a] & D_row[b] or
    R_col[b] & D_col[a], with D delta's masks: it is a factor of a composite
    that also stays."""
    labels, _, rows, cols = delta._index
    rounds = _shed(
        rows, cols, rows, cols, labels,
        "upper central series stalled before exhausting the relation",
    )
    rest = delta.pairs
    yield rest
    for shed in rounds:
        rest = rest.difference(shed)
        yield rest


def isolated(delta: Relation) -> Relation:
    """Pairs that compose with nothing: no right extension (j,k) with
    (i,k) present, and no left extension (l,i) with (l,j) present."""
    none = _masks((), delta._index.number)
    alone = (p for p in delta.pairs if _absorbs((p,), delta, none, normal=True))
    return Relation(delta.nodes, frozenset(alone))


def difference(delta: Relation, gamma: Relation) -> Relation:
    """Remove a normal subset; the result satisfies both axioms again.

    Normality of gamma is exactly what makes coefficient deletion a
    homomorphism, so it is demanded here rather than assumed.
    """
    if not is_normal(gamma, delta):
        raise ValueError("can only remove a normal subset")
    return Relation(delta.nodes, delta.pairs - gamma.pairs)


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
    omega on its right (maximal) or on its left (not maximal)?"""
    _require_subset(omega, delta, "subset")
    if not omega.pairs:
        kind = "maximality" if maximal else "minimality"
        raise ValueError(f"{kind} is about nonempty subsets")
    for i, j in omega.pairs:
        if maximal:
            walk = (((j, k), (i, k)) for _, k in delta.by_first.get(j, ()))
        else:
            walk = (((k, i), (k, j)) for k, _ in delta.by_second.get(i, ()))
        if not any(p in omega.pairs and c in delta.pairs for p, c in walk):
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
    return Relation(frozenset(node_set), pair_set)


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
# comments use to delimit labels. Both text parsers, from_pairs and McLainGroup
# apply it, so every label a group is built on prints and parses back.

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
    return Relation(frozenset(nodes), frozenset(pairs))


def parse_relation_file(path: str) -> Relation:
    with open(path, encoding="utf-8-sig") as handle:
        return parse_relation_text(handle.read())


def format_relation(delta: Relation) -> str:
    touched = spanned_nodes(delta)
    lines = [f"node {n}" for n in sorted(delta.nodes - touched)]
    lines += [f"{i} {j}" for i, j in sorted(delta.pairs)]
    return "\n".join(lines) + ("\n" if lines else "")
