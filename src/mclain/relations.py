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
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Collection, Iterable, Iterator

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


@dataclass(frozen=True)
class Relation:
    """An immutable finite relation with an explicit node set.

    The node set may strictly contain the nodes touched by pairs; keeping
    it explicit lets set difference preserve isolated nodes.
    """

    nodes: frozenset[str]
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if i not in self.nodes or j not in self.nodes:
                raise ValueError(f"pair ({i},{j}) uses a node outside the node set")

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
        order. Of the l in succ(k) & succ(i), those outside succ(j) break the
        axiom when (i,k) is present, and those inside it when (i,k) is absent.
        """
        loops = sorted(pair for pair in self.pairs if pair[0] == pair[1])
        violations: list[object] = [ReflexiveViolation(pair) for pair in loops]
        by_first, empty = self.by_first, frozenset()
        succ = {i: frozenset([k for _, k in out]) for i, out in by_first.items()}
        for i, j in (pair for out in by_first.values() for pair in out):  # sorted
            after_i = succ[i]
            for _, k in by_first.get(j, ()):
                common = after_i & succ.get(k, empty)
                if not common:
                    continue
                has_ik, after_j = k in after_i, succ[j]
                for l in sorted(common - after_j if has_ik else common & after_j):
                    present, absent = ((i, k), (j, l)) if has_ik else ((j, l), (i, k))
                    violations.append(ExchangeViolation((i, j, k, l), present, absent))
        return AxiomReport(not violations, tuple(violations))

    @cached_property
    def _levels(self) -> tuple[tuple[Pair, ...], ...]:
        """The pairs by exact bracket depth, shallow first, each level sorted.

        Level k is gamma_k less gamma_(k+1) of the relation with itself, by
        the descent ``gamma_series`` runs. A composite p = q∘r lies at a
        strictly deeper level than q and than r. A decomposition cycle, which
        only an axiom breaker has, raises the descent's ``AssertionError``.
        """
        terms = _descend(
            self.pairs, _decompositions(self, self), "bracket series failed to terminate"
        )
        return tuple(tuple(sorted(a - b)) for a, b in pairwise(terms))

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
    Absorption with sub as the partners, so only delta is ever indexed."""
    _require_subset(sub, delta, "subset")
    return _absorbs(sub.pairs, sub.pairs, delta, sub.pairs)


def is_normal(sub: Relation, delta: Relation) -> bool:
    """Does sub absorb one-sided composition with ambient pairs?

    Two absorption rules: for (i,j) in sub, any ambient (j,k) with
    (i,k) ambient forces (i,k) into sub, and any ambient (k,i) with
    (k,j) ambient forces (k,j) into sub. Normality implies closedness.
    """
    _require_subset(sub, delta, "subset")
    return _absorbs(sub.pairs, sub.pairs, delta, delta.pairs)


def _absorbs(pairs: Iterable, sub: frozenset, delta: Relation, partners: frozenset) -> bool:
    """Does sub hold each composite in delta of these pairs with a pair of
    partners, on either side? With sub empty, the pairs are isolated. The
    partner is tested last, so with delta as partners a yes tests none."""
    for i, j in pairs:
        for _, k in delta.by_first.get(j, ()):
            if (i, k) in delta.pairs and (i, k) not in sub and (j, k) in partners:
                return False
        for k, _ in delta.by_second.get(i, ()):
            if (k, j) in delta.pairs and (k, j) not in sub and (k, i) in partners:
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
    return _saturate(omega, delta, closed=True)


def normal_closure(omega: Relation, delta: Relation) -> Relation:
    """The smallest normal subset of delta containing omega.

    Saturation under composition with any pair of delta, on either side.
    """
    _require_subset(omega, delta, "subset")
    return _saturate(omega, delta, closed=False)


def _saturate(omega: Relation, delta: Relation, closed: bool) -> Relation:
    """Worklist saturation of omega under the composites delta admits.

    Each popped pair (i,j) meets its partners on both sides, (j,k) on
    the right and (k,i) on the left, found through delta's cached
    indexes. For the closure the partners are the pairs collected so
    far; a partner collected later meets (i,j) when it is popped in
    turn. For the normal closure every pair of delta is a partner.
    """
    pairs: set[Pair] = set(omega.pairs)
    partners = pairs if closed else delta.pairs
    work: list[Pair] = sorted(pairs)
    while work:
        i, j = work.pop()
        for _, k in delta.by_first.get(j, ()):
            if (i, k) in delta.pairs and (i, k) not in pairs and (j, k) in partners:
                pairs.add((i, k))
                work.append((i, k))
        for k, _ in delta.by_second.get(i, ()):
            if (k, j) in delta.pairs and (k, j) not in pairs and (k, i) in partners:
                pairs.add((k, j))
                work.append((k, j))
    return Relation(delta.nodes, frozenset(pairs))


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


def _decompositions(gamma: Relation, delta: Relation) -> dict[Pair, list[Pair]]:
    """The factors q, r in gamma of each pair p = q∘r of delta, by one walk of
    gamma's ``by_first``. The keys lie in gamma exactly when gamma is closed,
    and are then [gamma, gamma]."""
    out: dict[Pair, list[Pair]] = {}
    for q in gamma.pairs:
        for r in gamma.by_first.get(q[1], ()):
            p = (q[0], r[1])
            if p in delta.pairs:
                out.setdefault(p, []).extend((q, r))
    return out


def _descend(
    start: frozenset, links: dict[Pair, list[Pair]], stall: str
) -> Iterator[frozenset]:
    """start, then after each term the pairs of that term that link to a pair
    of that term, down to the empty set. A nonempty term that is its own
    successor would repeat forever; only an axiom breaker has one, and it
    raises ``AssertionError(stall)``."""
    term = start
    yield term
    while term:
        kept = frozenset(p for p in term if not term.isdisjoint(links.get(p, ())))
        if kept == term:
            raise AssertionError(stall)
        term = kept
        yield term


def gamma_series(gamma: Relation, delta: Relation) -> SubsetChain:
    """Iterated bracket with gamma, down to the first empty subset.

    Terms are gamma, [gamma, gamma], [[gamma, gamma], gamma], ...; each
    term contains the next because gamma is closed, so a pair stays in the
    next term while one of its factors in gamma lies in the current one.
    Only an axiom breaker, with a cycle of decompositions, has a series
    that never ends.
    """
    _require_subset(gamma, delta, "subset")
    below = _decompositions(gamma, delta)
    if not below.keys() <= gamma.pairs:  # is_closed, read off the same walk
        raise ValueError("gamma series needs a closed subset")
    _, *rest = _descend(gamma.pairs, below, "bracket series failed to terminate")
    return SubsetChain("descending", (gamma, *(Relation(delta.nodes, t) for t in rest)))


def _upper_remainders(delta: Relation) -> Iterator[frozenset]:
    """delta less each term of its upper central series, from the empty term
    up: a pair stays while it is a factor of a composite that also stays."""
    above: dict[Pair, list[Pair]] = {}
    for p, factors in _decompositions(delta, delta).items():
        for f in factors:
            above.setdefault(f, []).append(p)
    return _descend(
        delta.pairs, above, "upper central series stalled before exhausting the relation"
    )


def isolated(delta: Relation) -> Relation:
    """Pairs that compose with nothing: no right extension (j,k) with
    (i,k) present, and no left extension (l,i) with (l,j) present."""
    alone = (p for p in delta.pairs if _absorbs((p,), frozenset(), delta, delta.pairs))
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
