"""Group elements 1 + x over a relation, with exact sparse arithmetic.

An element is the formal unit plus a finitely supported coefficient map
on the pairs of a valid relation. Basis elements multiply by splicing:
e(i,j) e(k,l) is e(i,l) when j = k and (i,l) is a pair of the relation,
and zero otherwise. Every coefficient map x is nilpotent: a nonzero
product of basis elements walks through distinct nodes, so x^m vanishes
once m reaches the number of touched nodes. One right division gives
both the inverse and the commutator: 1 + z = (1+u)(1+w)^-1 solves
(1+z)(1+w) = 1+u one row at a time, and a composite (i,l) = (i,j)∘(j,l)
lies deeper in the bracket series than (i,j), so walking each row's
targets by depth, shallow first, is a triangular back-substitution at
about the cost of one product. It keeps w on the right of every coefficient
product, so it is exact over noncommutative rings. The inverse divides 1
by g, the commutator (g h)(h g)^-1 takes two products and no inverse,
and a word divides by each of its inv(w) factors.

A word is a ``GeneratorWord`` of three kinds of token: ``Gen``, the
generator x_p(r); ``Inv``, the inverse of a word; and ``Comm``, the
commutator of two words. The empty word is the identity, and it is the
only spelling of it. ``Gen`` refuses a value that is not a ring value and
labels that break the label rule, so ``format_word`` only prints: a word
in the expression grammar of ``parsing`` that, when the values are of one
ring, parses back to the same word.

Elements are immutable and normalized: zero coefficients are never
stored, so equality of elements is equality of coefficient maps. The
map holds raw ring payloads (an int, or a 4-tuple for M2(Z/n)) and the
arithmetic calls the group ring's payload hooks directly; coefficients
become RingValues again only where they leave an element. Values are
validated once, on entry (``_payloads``, from ``McLainGroup.element``,
``McLainGroup.eval_word`` and ``OrderedForm.product``). The kernels below,
and the factorizations that feed them payloads they solved, check nothing.

The map is a row map, keyed by node numbers in the numbering of the
relation's index (``relations._Index``, nodes in sorted label order, N of
them): row i maps to a dict from each target l to the nonzero payload at
the pair (i,l), and no row is empty. Two equal elements so hold equal maps.
Row i of a product reads row i of x and the rows j of y, so the kernels
read rows as they are stored, as in Gustavson's row-by-row sparse product
(ACM TOMS 4(3), 1978), and no label tuple is built or hashed per term; a
row that ``Ring._axpy`` walks is read once per call into a list of its
terms, which walks faster there than a dict's items. The kernels never
change a map they are given, and the ones they return may share unchanged
rows with their inputs. Labels appear only at the edges:
``_payloads`` numbers a pair through ``Relation._arcs`` and ``coefficient``
its labels through the index, and ``coefficients`` and ``support`` read
the pair (i,l) from the index's ``by_code`` at its code i*N + l, as the
relation's own pair object. Sorted rows, then sorted targets, are sorted
label pairs, and the numbering depends only on the node set, so equal
groups, subgroups and quotients over the same nodes read a row map alike.

The one general product (``_product``, of units: xy alone is that product
less x and y) and the division (``_divide``) work one output row at a
time, with row accumulators: the sums of row i live in one list of N
slots, each starting as the ring's zero object (one ``[zero] * N``, which
fills a wide row faster than a copy of a template), and a term a of x at
(i,j) adds a times row j of y into it through one ``Ring._axpy``, which
may leave the sums unreduced (delayed reduction, one ``_add`` per output
entry, as in Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008). Only the
relation's targets of row i are read back: the product harvests
``_Index.succ[i]``, so a composite outside the relation is never read and
needs no admission test, and the division walks row i's targets in
bracket-depth order (``Relation._levels``). A slot that still is the zero
object is skipped, a nonzero result is kept by ``!=`` against ``_zero``,
and a row that keeps none is left out. ``_generators_times`` copies each
row it changes, takes each term through one ``Ring._fma`` and admits a
composite (p,l) by one bit test on node p's successor row.

Products with a run of single generators 1 + c e(p,q) skip the general
product, which scans every term of both maps. One kernel does the
one-pair step of collection instead: ``_generators_times`` multiplies
on the left and keeps the running map by row, so a factor adds
c R[q,l] to R[p,l] for each l in row q, at O(|row q|). Every ordered
product, of a word's runs or of solved payloads, is ``_ordered_product``,
which builds it from its right end by feeding the kernel the factors
last-first; the only other caller of the kernel is the word
factorization, whose undos multiply in on the left as they are.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from functools import partial
from itertools import groupby
from operator import mul

from ._record import record
from .relations import Arc, InvariantError, Pair, Relation, _require_label_rule, require_valid
from .rings import Ring, RingValue


@record
class Gen:
    """One generator factor: unit plus value at the pair (source, target).

    It refuses, with a ValueError naming the fault, a value that is not a
    RingValue and a label that breaks the label rule, so it prints as text
    that parses back to it. ``_of`` skips the check.
    """

    source: str
    target: str
    value: RingValue

    def __init__(self, source: str, target: str, value: RingValue) -> None:
        if not isinstance(value, RingValue):
            raise ValueError(
                f"cannot build Gen({source!r}, {target!r}, {value!r}): "
                "its value is not a ring value"
            )
        _require_label_rule((source, target))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "value", value)

    @classmethod
    def _of(cls, source: str, target: str, value: RingValue) -> "Gen":
        """The token, unchecked, for a pair of a relation and a RingValue."""
        self = object.__new__(cls)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "value", value)
        return self


@record
class Inv:
    word: "GeneratorWord"

    def __post_init__(self) -> None:
        _require_word(self.word)


@record
class Comm:
    left: "GeneratorWord"
    right: "GeneratorWord"

    def __post_init__(self) -> None:
        _require_word(self.left)
        _require_word(self.right)


def _require_word(word: object) -> None:
    if not isinstance(word, GeneratorWord):
        raise ValueError(f"expected a GeneratorWord, got {word!r}")


@record
class GeneratorWord:
    """A product of tokens, evaluated left to right."""

    tokens: tuple[Gen | Inv | Comm, ...] = ()

    def __post_init__(self) -> None:
        for token in self.tokens:
            if not isinstance(token, (Gen, Inv, Comm)):
                raise ValueError(f"bad word token: {token!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Gen | Inv | Comm]:
        return iter(self.tokens)


def format_word(word: GeneratorWord) -> str:
    """Render a word in the expression grammar; the empty word is 1.

    Every ``Gen`` was checked when it was built, so the text parses back
    to the same word when the values are of one ring.
    """
    if not word.tokens:
        return "1"
    return "*".join(_format_token(t) for t in word.tokens)


def _format_token(token: Gen | Inv | Comm) -> str:
    if isinstance(token, Gen):
        return f"x({token.source},{token.target};{token.value})"
    if isinstance(token, Inv):
        return f"inv({format_word(token.word)})"
    return f"comm({format_word(token.left)},{format_word(token.right)})"


@record
class McLainGroup:
    """The group of units 1 + x over a valid relation and coefficient ring.

    Construction validates the relation's axioms once; its labels were
    checked when it was made. Everything else leans on that validity (most
    of all the level order of the inverse and the nilpotency power bound).
    """

    relation: Relation
    ring: Ring

    def __post_init__(self) -> None:
        require_valid(self.relation)

    def identity(self) -> "GroupElement":
        return GroupElement(self, {})

    def element(self, coefficients: Mapping[Pair, RingValue | int]) -> "GroupElement":
        """Build an element from a pair-to-coefficient map; zeros drop out."""
        rows = defaultdict(dict)
        for (i, l), c in _payloads(self, coefficients.items()):
            rows[i][l] = c
        return GroupElement(self, dict(rows))

    def generator(self, source: str, target: str, value: RingValue | int) -> "GroupElement":
        return self.element({(source, target): value})

    def eval_word(self, word: GeneratorWord) -> "GroupElement":
        """The left-to-right product of the tokens, kept as one raw map: each
        run of Gen tokens is one ``_ordered_product`` joined to the map so
        far, and each inv(w) is one right division by w."""
        out: Coeffs = {}
        for is_gen, run in groupby(word.tokens, key=lambda t: isinstance(t, Gen)):
            if is_gen:
                factors = _payloads(self, (((t.source, t.target), t.value) for t in run))
                run_map = _ordered_product(self, factors)
                out = _product(self, out, run_map) if out else run_map
                continue
            for token in run:
                if isinstance(token, Inv):
                    out = _divide(self, out, self.eval_word(token.word)._coeffs)
                else:
                    left, right = self.eval_word(token.left), self.eval_word(token.right)
                    out = _product(self, out, left.commutator(right)._coeffs)
        return GroupElement(self, out)


# A coefficient map, by row: each row's node number to a dict from each
# target's node number to the nonzero raw payload of the group's ring at
# that pair. No row is empty.
Coeffs = dict[int, dict[int, object]]


def _product(group: McLainGroup, x: Coeffs, y: Coeffs) -> Coeffs:
    """The map of (1+x)(1+y) = 1 + (x + y + xy), zeros pruned, one output
    row at a time.

    The sums of output row i live in one list with a slot per node, each
    slot starting as the ring's zero object; the list is made, as
    ``[zero] * n``, when the row is first touched. Each term of y, then of
    x, is loaded into its slot: as it is while the slot still is the zero
    object, by one ``_add`` once it is not. A term a of x at (i,j) then adds
    a times row j of y into row i through one ``Ring._axpy``, which may
    leave the sums unreduced. Each row of y is read once into a list of its
    (l, b) terms, which every term of x in column j hands to ``_axpy``: a
    list walks faster there than a dict's items. Each row is harvested over
    the relation's successors of i (``_Index.succ``), as every other product
    of basis elements is zero: a slot that still is the zero object is
    skipped, any other is reduced by one ``_add`` from zero and kept if it
    is nonzero, and a row that keeps none is left out.
    """
    index, ring = group.relation._index, group.ring
    n, succ = len(index.labels), index.succ
    axpy, add, zero = ring._axpy, ring._add, ring._zero
    rows = defaultdict(partial(mul, [zero], n))
    terms = {}  # each row of y, as a list
    for j, row_y in y.items():
        sums = rows[j]
        terms[j] = row = list(row_y.items())
        for l, b in row:
            sums[l] = b
    for i, row_x in x.items():
        sums = rows[i]
        for j, a in row_x.items():
            s = sums[j]
            sums[j] = a if s is zero else add(s, a)
            if j in terms:
                axpy(sums, a, terms[j])
    out: Coeffs = {}
    for i, sums in rows.items():
        harvest = {}
        for l in succ[i]:
            c = sums[l]
            if c is not zero:
                c = add(zero, c)
                if c != zero:
                    harvest[l] = c
        if harvest:
            out[i] = harvest
    return out


def _payloads(
    group: McLainGroup, items: Iterable[tuple[Pair, object]]
) -> Iterator[tuple[Arc, object]]:
    """Each (pair, value) as (node-number pair, raw payload), zeros dropped.

    A pair outside the relation raises ValueError and a value the ring
    cannot coerce raises RingError, zero values included: they are
    checked before they are dropped.
    """
    arcs, coerce, zero = group.relation._arcs, group.ring.coerce, group.ring._zero
    for pair, raw in items:
        arc = arcs.get(pair)
        if arc is None:
            raise ValueError(f"pair ({pair[0]},{pair[1]}) is not in the relation")
        payload = coerce(raw).payload
        if payload != zero:
            yield arc, payload


def _generators_times(
    group: McLainGroup, factors: Iterable[tuple[Arc, object]], x: Coeffs
) -> Coeffs:
    """The map of ...(1 + c2 e(p2,q2))(1 + c1 e(p1,q1))(1+x), zeros pruned:
    each factor in turn multiplies on the left.

    A factor 1 + c e(p,q), given as ((p, q), c), adds c R[q,l] to R[p,l]
    for each l in row q of the running map R with (p,l) in the relation,
    then c to R[p,q]; no other row changes. Row p is copied from x when a
    factor first changes it, and the copies are pruned of zeros at the
    end; every other row of x is returned as it is. The factors are
    payloads the caller has validated.
    """
    admits, ring = group.relation._index.rows, group.ring
    fma, add, zero = ring._fma, ring._add, ring._zero
    changed: Coeffs = {}
    none: dict = {}
    for (p, q), c in factors:
        row_p = changed.get(p)
        if row_p is None:
            row_p = changed[p] = dict(x.get(p, none))
        row_q = changed.get(q) or x.get(q, none)
        admitted = admits[p]
        for l, b in row_q.items():
            if admitted >> l & 1:
                row_p[l] = fma(row_p.get(l, zero), c, b)
        row_p[q] = add(row_p.get(q, zero), c)
    out = dict(x)
    for p, row in changed.items():
        if row := {l: a for l, a in row.items() if a != zero}:
            out[p] = row
        else:
            out.pop(p, None)
    return out


def _ordered_product(group: McLainGroup, factors: Iterable[tuple[Arc, object]]) -> Coeffs:
    """The map of (1 + c1 e(p1,q1))(1 + c2 e(p2,q2))... for ((p, q), payload)
    factors given in product order, built from its right end."""
    return _generators_times(group, reversed(list(factors)), {})


def _divide(group: McLainGroup, u: Coeffs, w: Coeffs) -> Coeffs:
    """The map z with 1+z = (1+u)(1+w)^-1, solved from (1+z)(1+w) = 1+u.

    z[i,l] = u[i,l] - w[i,l] - the sum of z[i,j] w[j,l], and each such
    (i,l) = (i,j)∘(j,l) lies at a deeper level of the bracket series than
    (i,j). So row i of z depends on row i of u and w and on itself alone,
    and each row that u or w touches is solved on its own, as a triangular
    back-substitution; no other row, and no level of the whole relation, is
    visited. The row's sums live in one list with a slot per node, as in
    ``_product``, loaded with u - w, and its targets are walked in
    bracket-depth order (``Relation._levels``). A slot that still is the
    zero object is skipped. Any other, once nonzero, is z[i,j], final, and
    z[i,j] (-w[j,l]) goes into slot l for each l in row j of w, all of row
    j of -w, taken once as a list as in ``_product``, through one
    ``Ring._axpy``, which may leave the sums unreduced.
    So a slot is reduced, by one ``_add`` from zero, only once an ``_axpy``
    has reached its row: until then it holds u - w as loaded, already
    reduced. Unlike the product, the solve needs no harvest: the walk reads
    only the relation's pairs, so a slot outside it is never read, and a
    row that solves to zero is left out. w stays on the right, so the solve
    is exact over noncommutative rings. Only a corrupted relation has a
    cycle of decompositions and so no levels; the levels' own
    InvariantError goes through.
    """
    ring, n = group.ring, len(group.relation._index.labels)
    axpy, add, neg, zero = ring._axpy, ring._add, ring._neg, ring._zero
    levels = group.relation._levels
    rows = defaultdict(partial(mul, [zero], n))
    for i, row_u in u.items():
        sums = rows[i]
        for l, c in row_u.items():
            sums[l] = c
    minus_w = {}  # each row of -w, as a list
    for j, row_w in w.items():
        sums, row = rows[j], []
        for l, c in row_w.items():
            c = neg(c)
            row.append((l, c))
            s = sums[l]
            sums[l] = c if s is zero else add(s, c)
        minus_w[j] = row
    out: Coeffs = {}
    for i, sums in rows.items():
        solved, reached = {}, False
        for l in levels[i]:
            z = sums[l]
            if z is zero:
                continue
            if reached:
                z = add(zero, z)
            if z == zero:
                continue
            solved[l] = z
            if l in minus_w:
                axpy(sums, z, minus_w[l])
                reached = True
        if solved:
            out[i] = solved
    return out


class GroupElement:
    """An immutable element 1 + x, stored as the support map of x."""

    __slots__ = ("group", "_coeffs")

    def __init__(self, group: McLainGroup, coeffs: Coeffs):
        self.group = group
        self._coeffs = coeffs

    def coefficient(self, source: str, target: str) -> RingValue:
        """The coefficient at (source, target): zero off the support, also
        for a pair outside the relation or a label outside the node set."""
        ring, number = self.group.ring, self.group.relation._index.number
        row = self._coeffs.get(number.get(source), {})
        return RingValue(ring, row.get(number.get(target), ring._zero))

    def coefficients(self) -> dict[Pair, RingValue]:
        ring, index = self.group.ring, self.group.relation._index
        n, by_code = len(index.labels), index.by_code
        return {
            by_code[i * n + l]: RingValue(ring, c)
            for i, row in self._coeffs.items()
            for l, c in row.items()
        }

    def support(self) -> Relation:
        relation, index = self.group.relation, self.group.relation._index
        n, by_code = len(index.labels), index.by_code
        pairs = frozenset(by_code[i * n + l] for i, row in self._coeffs.items() for l in row)
        return Relation._within(relation.nodes, pairs)

    def is_identity(self) -> bool:
        return not self._coeffs

    def _mate(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            raise ValueError(f"expected a group element, got {other!r}")
        if other.group != self.group:
            raise ValueError("elements live in different groups")
        return other

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        other = self._mate(other)
        return GroupElement(
            self.group, _product(self.group, self._coeffs, other._coeffs)
        )

    def inverse(self) -> "GroupElement":
        """(1+x)^-1, the right division of 1 by 1 + x (``_divide``)."""
        return GroupElement(self.group, _divide(self.group, {}, self._coeffs))

    def commutator(self, other: "GroupElement") -> "GroupElement":
        """g h g^-1 h^-1, computed as the right division (g h)(h g)^-1:
        two products and no inverse."""
        group, x, y = self.group, self._coeffs, self._mate(other)._coeffs
        u, w = _product(group, x, y), _product(group, y, x)
        return GroupElement(group, _divide(group, u, w))

    def nilpotency_index(self) -> int:
        """Least m >= 1 with (g - 1)^m = 0; the identity gives 1.

        Powers are taken one at a time: x^(m+1) is the product
        (1 + x^m)(1 + x) less x^m and x, with x^m kept on the left, so it
        is exact over noncommutative rings. A nonzero power x^m walks
        through m + 1 distinct nodes, so running past the node bound would
        mean a non-nilpotent map, which a valid relation cannot produce.
        """
        group, x = self.group, self._coeffs
        add, neg, zero = group.ring._add, group.ring._neg, group.ring._zero
        bound = len(set(x).union(*x.values()))
        power, exponent = x, 1
        while power:
            product = _product(group, power, x)
            for i, row in [*power.items(), *x.items()]:
                sums = product.setdefault(i, {})
                for l, c in row.items():
                    sums[l] = add(sums.get(l, zero), neg(c))
            power = {}
            for i, sums in product.items():
                if row := {l: c for l, c in sums.items() if c != zero}:
                    power[i] = row
            exponent += 1
            if power and exponent > bound:
                raise InvariantError(
                    "power series exceeded the nilpotency bound; "
                    "the ambient relation is corrupted"
                )
        return exponent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        rows = self._coeffs.items()
        return hash((self.group, frozenset((i, frozenset(row.items())) for i, row in rows)))

    def __str__(self) -> str:
        if not self._coeffs:
            return "1"
        fmt, labels = self.group.ring._format, self.group.relation._index.labels
        parts = []  # sorted rows, then sorted targets, are sorted pairs
        for i, row in sorted(self._coeffs.items()):
            for l in sorted(row):
                parts.append(f"{fmt(row[l])}*e({labels[i]},{labels[l]})")
        return "1 + " + " + ".join(parts)

    def __repr__(self) -> str:
        return str(self)
