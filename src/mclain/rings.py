"""Exact coefficient rings: integers, integers mod n, and 2x2 matrices mod n.

All arithmetic is exact; nothing here tolerates rounding. Values are
immutable, carry the ring they belong to, and refuse to mix with values
from any other ring. The matrix instance is noncommutative on purpose:
coefficient products inside commutator identities have a definite order,
and a commutative-only test diet cannot tell ab from ba.

A value wraps a canonical raw payload (an int, or a row-major 4-tuple
for the matrices), so values are equal exactly when payloads are ``==``.
A ring supplies what the group law needs: its zero payload ``_zero`` (a
class attribute, not a field), ``_add``, ``_neg``, the multiply-add
``_fma`` and its row form ``_axpy``, which adds a row of products into a
row accumulator, a list of sums indexed by node number, and may leave
them unreduced: the other three return canonical payloads for such
input. Each ring defines all five: the base has no zero, and its hooks
raise NotImplementedError.
At the edges, ``value`` checks a raw payload and wraps its canonical
form, and ``_format`` prints one. Z and Z/n differ only in ``from_int``
and their arithmetic, so they share the rest through one base,
``_Scalar``: the zero, the literal parser, ``value``, the formatter and
the row multiply-add, which leaves plain int sums with no modulus. The
M2(Z/n) row multiply-add leaves 4-tuples of plain ints, a on the left. Z/n
and M2(Z/n) share the modulus field and its check through ``_Modular``.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Iterator

from ._record import record


class RingError(ValueError):
    """Bad ring spec, malformed literal, or mixed-ring arithmetic."""


@record
class RingValue:
    """An element of a concrete ring, tagged with that ring."""

    ring: "Ring"
    payload: object

    def __init__(self, ring: "Ring", payload: object) -> None:
        # Written out because a value is built per coefficient that leaves
        # an element; the record's generic __init__ binds its arguments.
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def _mate(self, other: "RingValue") -> "RingValue":
        if not isinstance(other, RingValue):
            raise RingError(f"expected a ring value, got {other!r}")
        if other.ring != self.ring:
            raise RingError(f"mixed-ring operands: {self.ring} and {other.ring}")
        return other

    def __add__(self, other: "RingValue") -> "RingValue":
        other = self._mate(other)
        return RingValue(self.ring, self.ring._add(self.payload, other.payload))

    def __sub__(self, other: "RingValue") -> "RingValue":
        return self + (-self._mate(other))

    def __neg__(self) -> "RingValue":
        return RingValue(self.ring, self.ring._neg(self.payload))

    def __mul__(self, other: "RingValue") -> "RingValue":
        other, ring = self._mate(other), self.ring
        return RingValue(ring, ring._fma(ring._zero, self.payload, other.payload))

    def __bool__(self) -> bool:
        return self.payload != self.ring._zero

    def __str__(self) -> str:
        return self.ring._format(self.payload)

    def __repr__(self) -> str:
        return f"<{self.ring} value {self}>"


_SCALAR_LITERAL = re.compile(r"[+-]?\d+")
_MATRIX_LITERAL = re.compile(
    r"\[([+-]?\d+),([+-]?\d+);([+-]?\d+),([+-]?\d+)\]"
)


def _clean_literal(text: str) -> str:
    # U+2212 sometimes arrives from copy-pasted mathematics.
    return text.replace("−", "-").replace(" ", "").strip()


def _literal_int(digits: str) -> int:
    """int(digits) for a signed decimal literal; a literal past Python's
    limit on integer-string conversion is a RingError naming its length."""
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("+-"))
        raise RingError(f"literal of {count} digits is past the integer-string limit") from None


@record
class Ring:
    """Base for the concrete rings. Subclasses define payload arithmetic."""

    def value(self, payload: object) -> RingValue:
        """The value of a raw payload, reduced to its canonical form; a
        malformed payload raises RingError."""
        raise NotImplementedError

    def from_int(self, k: int) -> RingValue:
        """The canonical image of the integer k, i.e. k times the unit."""
        raise NotImplementedError

    @property
    def zero(self) -> RingValue:
        return RingValue(self, self._zero)

    @property
    def one(self) -> RingValue:
        return self.from_int(1)

    def coerce(self, value: "RingValue | int") -> RingValue:
        """Accept a value of this ring, or an int through from_int."""
        if isinstance(value, RingValue):
            if value.ring != self:
                raise RingError(f"value of {value.ring} used where {self} expected")
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise RingError(f"cannot coerce {value!r} into {self}")
        return self.from_int(value)

    def parse(self, text: str) -> RingValue:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> RingValue:
        raise NotImplementedError

    def elements(self) -> Iterator[RingValue]:
        raise RingError(f"{self} is not finite")

    # payload hooks. Subclasses also set _zero, the zero payload; the base
    # has none, so a ring that forgets it fails on first use.
    def _add(self, a: object, b: object) -> object:
        raise NotImplementedError

    def _neg(self, a: object) -> object:
        raise NotImplementedError

    def _fma(self, s: object, a: object, b: object) -> object:
        """s + ab in one call, a on the left."""
        raise NotImplementedError

    def _axpy(self, sums: list, a: object, row) -> None:
        """Add ab into sums[l] for each (l, b) in row, a on the left: sums is
        one row of an output, indexed by node number, each slot starting at
        ``_zero``; the sums may be left unreduced."""
        raise NotImplementedError

    def _format(self, a: object) -> str:
        raise NotImplementedError


class _Scalar(Ring):
    """Base of the rings on int payloads, Z and Z/n: each payload is the one
    its ``from_int`` gives, and the subclass supplies the arithmetic."""

    _zero = 0

    def parse(self, text: str) -> RingValue:
        cleaned = _clean_literal(text)
        if _SCALAR_LITERAL.fullmatch(cleaned):
            return self.from_int(_literal_int(cleaned))
        if _MATRIX_LITERAL.fullmatch(cleaned):
            raise RingError(f"matrix literal {text!r} used with scalar ring {self}")
        raise RingError(f"malformed {self} literal: {text!r}")

    def value(self, payload: object) -> RingValue:
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise RingError(f"{self} payload must be an int, got {payload!r}")
        return self.from_int(payload)

    def _axpy(self, sums: list, a: int, row) -> None:
        """Plain int sums, with no modulus."""
        for l, b in row:
            sums[l] += a * b

    def _format(self, a: int) -> str:
        return str(a)


@record
class Integers(_Scalar):
    """The ring of integers, at arbitrary precision."""

    def from_int(self, k: int) -> RingValue:
        return RingValue(self, int(k))

    def sample(self, rng: random.Random) -> RingValue:
        return self.from_int(rng.randint(-9, 9))

    def _add(self, a: int, b: int) -> int:
        return a + b

    def _neg(self, a: int) -> int:
        return -a

    def _fma(self, s: int, a: int, b: int) -> int:
        return s + a * b

    def __str__(self) -> str:
        return "Z"


@record
class _Modular(Ring):
    """Base of the rings with a modulus, Z/n and M2(Z/n): n is an int >= 2."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise RingError(f"modulus must be an integer >= 2, got {self.n!r}")


@record
class IntegersMod(_Scalar, _Modular):
    """Integers modulo n, with residues kept in [0, n)."""

    def from_int(self, k: int) -> RingValue:
        return RingValue(self, int(k) % self.n)

    def sample(self, rng: random.Random) -> RingValue:
        return self.from_int(rng.randrange(self.n))

    def elements(self) -> Iterator[RingValue]:
        for k in range(self.n):
            yield self.from_int(k)

    def _add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def _neg(self, a: int) -> int:
        return (-a) % self.n

    def _fma(self, s: int, a: int, b: int) -> int:
        return (s + a * b) % self.n

    def __str__(self) -> str:
        return f"Z/{self.n}"


@record
class Matrices2x2Mod(_Modular):
    """2x2 matrices over the integers mod n, stored row major.

    Noncommutative for every n >= 2, which is the point: it separates
    coefficient products ab from ba wherever an order matters.
    """

    _zero = (0, 0, 0, 0)

    def from_int(self, k: int) -> RingValue:
        r = int(k) % self.n
        return RingValue(self, (r, 0, 0, r))

    def parse(self, text: str) -> RingValue:
        cleaned = _clean_literal(text)
        m = _MATRIX_LITERAL.fullmatch(cleaned)
        if m is None:
            if _SCALAR_LITERAL.fullmatch(cleaned):
                raise RingError(f"scalar literal {text!r} used with matrix ring {self}")
            raise RingError(f"malformed {self} literal: {text!r}")
        return self.value(tuple(map(_literal_int, m.groups())))

    def sample(self, rng: random.Random) -> RingValue:
        return self.value(tuple(rng.randrange(self.n) for _ in range(4)))

    def elements(self) -> Iterator[RingValue]:
        for quad in itertools.product(range(self.n), repeat=4):
            yield self.value(quad)

    def value(self, payload: object) -> RingValue:
        if not (isinstance(payload, tuple) and len(payload) == 4):
            raise RingError(f"{self} payload must be a 4-tuple, got {payload!r}")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in payload):
            raise RingError(f"{self} payload entries must be ints, got {payload!r}")
        return RingValue(self, tuple(x % self.n for x in payload))

    def _add(self, a, b):
        n = self.n
        a11, a12, a21, a22 = a
        b11, b12, b21, b22 = b
        return ((a11 + b11) % n, (a12 + b12) % n, (a21 + b21) % n, (a22 + b22) % n)

    def _neg(self, a):
        n = self.n
        a11, a12, a21, a22 = a
        return (-a11 % n, -a12 % n, -a21 % n, -a22 % n)

    def _fma(self, s, a, b):
        a11, a12, a21, a22 = a
        b11, b12, b21, b22 = b
        return (
            (s[0] + a11 * b11 + a12 * b21) % self.n,
            (s[1] + a11 * b12 + a12 * b22) % self.n,
            (s[2] + a21 * b11 + a22 * b21) % self.n,
            (s[3] + a21 * b12 + a22 * b22) % self.n,
        )

    def _axpy(self, sums, a, row):
        a11, a12, a21, a22 = a
        for l, (b11, b12, b21, b22) in row:
            s = sums[l]
            sums[l] = (
                s[0] + a11 * b11 + a12 * b21,
                s[1] + a11 * b12 + a12 * b22,
                s[2] + a21 * b11 + a22 * b21,
                s[3] + a21 * b12 + a22 * b22,
            )

    def _format(self, a) -> str:
        return f"[{a[0]},{a[1]};{a[2]},{a[3]}]"

    def __str__(self) -> str:
        return f"M2(Z/{self.n})"


_SPEC_MOD = re.compile(r"Z/(\d+)")
_SPEC_MAT = re.compile(r"M2\(Z/(\d+)\)")


def parse_ring_spec(text: str) -> Ring:
    """Parse a ring spec string: Z, Z/n, or M2(Z/n)."""
    cleaned = text.replace(" ", "").strip()
    if cleaned == "Z":
        return Integers()
    m = _SPEC_MOD.fullmatch(cleaned)
    if m:
        return IntegersMod(int(m.group(1)))
    m = _SPEC_MAT.fullmatch(cleaned)
    if m:
        return Matrices2x2Mod(int(m.group(1)))
    raise RingError(f"unrecognized ring spec: {text!r}")
