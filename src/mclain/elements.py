"""Group elements 1 + x over a relation, with exact sparse arithmetic.

An element is the formal unit plus a finitely supported coefficient map
on the pairs of a valid relation. Basis elements multiply by splicing:
e(i,j) e(k,l) is e(i,l) when j = k and (i,l) is a pair of the relation,
and zero otherwise. Every coefficient map x is nilpotent: a nonzero
product of basis elements walks through distinct nodes, so x^m vanishes
once m reaches the number of touched nodes. One right division gives
both the inverse and the commutator: 1 + z = (1+u)(1+w)^-1 solves
(1+z)(1+w) = 1+u one pair at a time, and a composite (i,l) = (i,j)∘(j,l)
lies deeper in the bracket series than (i,j), so walking the pairs level
by level, shallow first, is a triangular back-substitution at about the
cost of one product. It keeps w on the right of every coefficient
product, so it is exact over noncommutative rings. The inverse divides 1
by g, the commutator (g h)(h g)^-1 takes two products and no inverse,
and a word divides by each of its inv(w) factors.

Elements are immutable and normalized: zero coefficients are never
stored, so equality of elements is equality of coefficient maps. The
map holds raw ring payloads (an int, or a 4-tuple for M2(Z/n)) and the
arithmetic calls the group ring's payload hooks directly; coefficients
become RingValues again only where they leave an element. Values are
validated once, on entry (``_payloads``, from ``McLainGroup.element``,
``McLainGroup.eval_word`` and ``OrderedForm.product``). The kernels below,
and the factorizations that feed them payloads they solved, check nothing.

The map is keyed by int pair codes, not label pairs: the pair (i,j) is
number(i)*N + number(j) in the numbering of the relation's index
(``relations._Index``, nodes in sorted label order, N of them). The
kernels split a code with ``divmod``, and the product kernels admit a
composite (i,l) by one bit test on node i's successor row, so no label
tuple is built or hashed per term. Labels appear only at the edges:
``_payloads`` and ``coefficient`` encode through the relation's
``_codes``, and ``coefficients``, ``support`` and ``__str__`` decode
through ``_Index.pair``. Sorted codes are sorted label pairs, and the
numbering depends only on the node set, so equal groups, subgroups and
quotients over the same nodes read a code alike.

Every kernel (``_splice``, ``_product``, ``_generators_times`` and
``_divide``) adds up the same way: each sum starts at ``Ring._zero`` and
takes every term through one ``Ring._fma`` or ``Ring._add``, or a row of
terms through one ``Ring._axpy``, which may leave it unreduced until one
``_add`` reduces it; the zeros that leaves are pruned once, at the end,
by ``!=`` against ``_zero``.

Products with a run of single generators 1 + c e(p,q) skip the general
splice, which scans every term of both maps. One kernel does the
one-pair step of collection instead: ``_generators_times`` multiplies
on the left and keeps the running map by row, so a factor adds
c R[q,l] to R[p,l] for each l in row q, at O(|row q|). Every ordered
product, of a word's runs or of solved payloads, is ``_ordered_product``,
which builds it from its right end by feeding the kernel the factors
last-first; the only other caller of the kernel is the word
factorization, whose undos multiply in on the left as they are.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Mapping

from ._record import record
from .relations import InvariantError, Pair, Relation, require_valid
from .rings import Ring, RingValue


@record
class Gen:
    """One generator factor: unit plus value at the pair (source, target)."""

    source: str
    target: str
    value: RingValue

    def __init__(self, source: str, target: str, value: RingValue) -> None:
        # Written out, like RingValue's, because one is built per token.
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "value", value)


@record
class Inv:
    word: "GeneratorWord"


@record
class Comm:
    left: "GeneratorWord"
    right: "GeneratorWord"


@record
class One:
    pass


Token = object


@record
class GeneratorWord:
    """A product of tokens, evaluated left to right."""

    tokens: tuple[Token, ...] = ()

    def __post_init__(self) -> None:
        for token in self.tokens:
            if not isinstance(token, (Gen, Inv, Comm, One)):
                raise ValueError(f"bad word token: {token!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)


def format_word(word: GeneratorWord) -> str:
    """Render a word in the expression grammar; the empty word is 1."""
    if not word.tokens:
        return "1"
    return "*".join(_format_token(t) for t in word.tokens)


def _format_token(token: Token) -> str:
    if isinstance(token, Gen):
        return f"x({token.source},{token.target};{token.value})"
    if isinstance(token, Inv):
        return f"inv({format_word(token.word)})"
    if isinstance(token, Comm):
        return f"comm({format_word(token.left)},{format_word(token.right)})"
    if isinstance(token, One):
        return "1"
    raise ValueError(f"bad word token: {token!r}")


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
        return GroupElement(self, dict(_payloads(self, coefficients.items())))

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
                elif isinstance(token, Comm):
                    left, right = self.eval_word(token.left), self.eval_word(token.right)
                    out = _product(self, out, left.commutator(right)._coeffs)
        return GroupElement(self, out)


# A coefficient map: each pair, by its code, to a nonzero raw payload of
# the group's ring.
Coeffs = dict[int, object]


def _splice(group: McLainGroup, x: Coeffs, y: Coeffs, base: Coeffs) -> Coeffs:
    """base + xy for coefficient maps, zeros pruned.

    base must hold no zeros, and it is added into in place. y is split by
    first index, and each term a of x adds a times row j of y into the sums
    of its row i through one ``Ring._axpy``, which may leave them
    unreduced; each admitted sum joins base through one ``_add``, which
    reduces it. The zeros that leaves are pruned in one pass at the end.
    """
    index, ring = group.relation._index, group.ring
    n, admits = len(index.labels), index.rows
    axpy, add, zero = ring._axpy, ring._add, ring._zero
    by_first: dict[int, list[tuple[int, object]]] = {}
    for code, b in y.items():
        j, l = divmod(code, n)
        by_first.setdefault(j, []).append((l, b))
    # row i of xy by target; only the targets the relation admits are kept,
    # as every other product of basis elements is zero
    row_sums: dict[int, dict[int, object]] = {}
    for code, a in x.items():
        i, j = divmod(code, n)
        if j in by_first:
            axpy(row_sums.setdefault(i, {}), a, by_first[j])
    for i, sums in row_sums.items():
        admitted, start = admits[i], i * n
        for l, c in sums.items():
            if admitted >> l & 1:
                code = start + l
                base[code] = add(base.get(code, zero), c)
    return {code: c for code, c in base.items() if c != zero}


def _payloads(
    group: McLainGroup, items: Iterable[tuple[Pair, object]]
) -> Iterator[tuple[int, object]]:
    """Each (pair, value) as (pair code, raw payload), zeros dropped.

    A pair outside the relation raises ValueError and a value the ring
    cannot coerce raises RingError, zero values included: they are
    checked before they are dropped.
    """
    codes, coerce, zero = group.relation._codes, group.ring.coerce, group.ring._zero
    for pair, raw in items:
        code = codes.get(pair)
        if code is None:
            raise ValueError(f"pair ({pair[0]},{pair[1]}) is not in the relation")
        payload = coerce(raw).payload
        if payload != zero:
            yield code, payload


def _generators_times(
    group: McLainGroup, factors: Iterable[tuple[int, object]], x: Coeffs
) -> Coeffs:
    """The map of ...(1 + c2 e(p2,q2))(1 + c1 e(p1,q1))(1+x), zeros pruned:
    each factor in turn multiplies on the left.

    The running map R is kept by row. A factor 1 + c e(p,q), given as the
    code of (p,q) and c, adds c R[q,l] to R[p,l] for each l in row q with
    (p,l) in the relation, then c to R[p,q]; nothing else changes. The
    factors are payloads the caller has validated.
    """
    index, ring = group.relation._index, group.ring
    n, admits = len(index.labels), index.rows
    fma, add, zero = ring._fma, ring._add, ring._zero
    rows: dict[int, dict[int, object]] = {}
    for code, a in x.items():
        i, j = divmod(code, n)
        rows.setdefault(i, {})[j] = a
    for code, c in factors:
        p, q = divmod(code, n)
        row_p, admitted = rows.setdefault(p, {}), admits[p]
        for l, b in rows.get(q, {}).items():
            if admitted >> l & 1:
                row_p[l] = fma(row_p.get(l, zero), c, b)
        row_p[q] = add(row_p.get(q, zero), c)
    return {
        i * n + j: a for i, row in rows.items() for j, a in row.items() if a != zero
    }


def _ordered_product(group: McLainGroup, factors: Iterable[tuple[int, object]]) -> Coeffs:
    """The map of (1 + c1 e(p1,q1))(1 + c2 e(p2,q2))... for (code, payload)
    factors given in product order, built from its right end."""
    return _generators_times(group, reversed(list(factors)), {})


def _product(group: McLainGroup, x: Coeffs, y: Coeffs) -> Coeffs:
    """The map of (1+x)(1+y) = 1 + (x + y + xy): x + y, added from zero,
    is the base that ``_splice`` adds xy into and prunes."""
    add, zero = group.ring._add, group.ring._zero
    base = dict(x)
    for code, c in y.items():
        base[code] = add(base.get(code, zero), c)
    return _splice(group, x, y, base)


_BOUND_MESSAGE = (
    "power series exceeded the nilpotency bound; the ambient relation is corrupted"
)


def _divide(group: McLainGroup, u: Coeffs, w: Coeffs) -> Coeffs:
    """The map z with 1+z = (1+u)(1+w)^-1, solved from (1+z)(1+w) = 1+u.

    z[i,l] = u[i,l] - w[i,l] - the sum of z[i,j] w[j,l], and each such
    (i,l) = (i,j)∘(j,l) lies at a deeper level of the bracket series than
    (i,j). So the pairs are solved level by level, shallow first, as in a
    triangular back-substitution: the running sums start at u - w, each
    term added from the ring's zero, and once z[i,j] is final and nonzero,
    z[i,j] (-w[j,l]) goes into the sum of (i,l) for each l in row j of w,
    all of row j through one ``Ring._axpy``, which may leave the sums
    unreduced. A pair is popped from the sums when its level
    (``Relation._levels``, held as codes) comes, skipped if no term
    reached it, reduced by one ``_add`` from zero, and kept only if
    nonzero: that is the one prune. Unlike the products, the solve tests no
    composite against the relation: the levels hold only its pairs, so a
    sum outside it is never read, and the walk runs through every level.
    w stays on the right, so the solve is exact over noncommutative rings.
    Only a corrupted relation has a cycle of decompositions and so no
    levels; it raises the same InvariantError as the power loop of
    ``nilpotency_index``.
    """
    ring, n = group.ring, len(group.relation._index.labels)
    axpy, add, neg, zero = ring._axpy, ring._add, ring._neg, ring._zero
    try:
        levels = group.relation._levels
    except InvariantError:
        raise InvariantError(_BOUND_MESSAGE) from None
    sums: Coeffs = dict(u)
    rows: dict[int, list[tuple[int, object]]] = {}
    for code, c in w.items():
        c = neg(c)
        j, l = divmod(code, n)
        rows.setdefault(j, []).append((l, c))
        sums[code] = add(sums.get(code, zero), c)
    out: Coeffs = {}
    for level in levels:
        for code in level:
            z = sums.pop(code, None)
            if z is None:
                continue
            z = add(zero, z)
            if z == zero:
                continue
            out[code] = z
            j = code % n
            if j in rows:
                axpy(sums, z, rows[j], code - j)
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
        ring = self.group.ring
        code = self.group.relation._codes.get((source, target))
        return RingValue(ring, self._coeffs.get(code, ring._zero))

    def coefficients(self) -> dict[Pair, RingValue]:
        ring, decode = self.group.ring, self.group.relation._index.pair
        return {decode(code): RingValue(ring, c) for code, c in self._coeffs.items()}

    def support(self) -> Relation:
        relation = self.group.relation
        pairs = frozenset(map(relation._index.pair, self._coeffs))
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

        Powers are taken one at a time. A nonzero power x^m walks through
        m + 1 distinct nodes, so running past the node bound would mean a
        non-nilpotent map, which a valid relation cannot produce.
        """
        x, n = self._coeffs, len(self.group.relation._index.labels)
        bound = len({node for code in x for node in divmod(code, n)})
        power, exponent = x, 1
        while power:
            power = _splice(self.group, power, x, {})
            exponent += 1
            if power and exponent > bound:
                raise InvariantError(_BOUND_MESSAGE)
        return exponent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        if not self._coeffs:
            return "1"
        fmt, decode = self.group.ring._format, self.group.relation._index.pair
        parts = []
        for code in sorted(self._coeffs):  # sorted codes are sorted pairs
            i, j = decode(code)
            parts.append(f"{fmt(self._coeffs[code])}*e({i},{j})")
        return "1 + " + " + ".join(parts)

    def __repr__(self) -> str:
        return str(self)
