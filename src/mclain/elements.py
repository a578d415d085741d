"""Group elements 1 + x over a relation, with exact sparse arithmetic.

An element is the formal unit plus a finitely supported coefficient map
on the pairs of a valid relation. Basis elements multiply by splicing:
e(i,j) e(k,l) is e(i,l) when j = k and (i,l) is a pair of the relation,
and zero otherwise. Every coefficient map is nilpotent, which makes the
elements invertible by an alternating geometric series that provably
stops: a nonzero product of basis elements walks through distinct
nodes, so the power index never reaches the number of touched nodes.

Elements are immutable and normalized: zero coefficients are never
stored, so equality of elements is equality of coefficient maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .relations import Pair, Relation, require_valid, spanned_nodes
from .rings import Ring, RingValue


@dataclass(frozen=True)
class Gen:
    """One generator factor: unit plus value at the pair (source, target)."""

    source: str
    target: str
    value: RingValue


@dataclass(frozen=True)
class Inv:
    word: "GeneratorWord"


@dataclass(frozen=True)
class Comm:
    left: "GeneratorWord"
    right: "GeneratorWord"


@dataclass(frozen=True)
class One:
    pass


Token = object


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class McLainGroup:
    """The group of units 1 + x over a valid relation and coefficient ring.

    Construction validates the relation's axioms once; everything else
    leans on that validity (most of all the inverse power bound).
    """

    relation: Relation
    ring: Ring

    def __post_init__(self) -> None:
        require_valid(self.relation)

    def identity(self) -> "GroupElement":
        return GroupElement(self, {})

    def element(self, coefficients: Mapping[Pair, RingValue | int]) -> "GroupElement":
        """Build an element from a pair-to-coefficient map; zeros drop out."""
        cleaned: dict[Pair, RingValue] = {}
        for pair, raw in coefficients.items():
            if pair not in self.relation.pairs:
                raise ValueError(f"pair ({pair[0]},{pair[1]}) is not in the relation")
            value = self.ring.coerce(raw)
            if value:
                cleaned[pair] = value
        return GroupElement(self, cleaned)

    def generator(self, source: str, target: str, value: RingValue | int) -> "GroupElement":
        return self.element({(source, target): value})

    def eval_word(self, word: GeneratorWord) -> "GroupElement":
        out = self.identity()
        for token in word.tokens:
            out = out * self._eval_token(token)
        return out

    def _eval_token(self, token: Token) -> "GroupElement":
        if isinstance(token, Gen):
            return self.generator(token.source, token.target, token.value)
        if isinstance(token, Inv):
            return self.eval_word(token.word).inverse()
        if isinstance(token, Comm):
            return self.eval_word(token.left).commutator(self.eval_word(token.right))
        if isinstance(token, One):
            return self.identity()
        raise ValueError(f"bad word token: {token!r}")


def _splice(
    group: McLainGroup, x: dict[Pair, RingValue], y: dict[Pair, RingValue]
) -> dict[Pair, RingValue]:
    """The pure product xy of two coefficient maps, zeros pruned."""
    out: dict[Pair, RingValue] = {}
    by_first: dict[str, list[tuple[Pair, RingValue]]] = {}
    for pair, value in y.items():
        by_first.setdefault(pair[0], []).append((pair, value))
    for (i, j), a in x.items():
        for (_, l), b in by_first.get(j, ()):
            if (i, l) in group.relation.pairs:
                c = a * b
                prior = out.get((i, l))
                total = c if prior is None else prior + c
                if total:
                    out[(i, l)] = total
                elif (i, l) in out:
                    del out[(i, l)]
    return out


def _merge(maps: Iterable[dict[Pair, RingValue]]) -> dict[Pair, RingValue]:
    """The sum of the maps, zeros pruned, added into one running sum as
    the maps are produced."""
    out: dict[Pair, RingValue] = {}
    for coeffs in maps:
        for pair, value in coeffs.items():
            prior = out.get(pair)
            total = value if prior is None else prior + value
            if total:
                out[pair] = total
            elif pair in out:
                del out[pair]
    return out


class GroupElement:
    """An immutable element 1 + x, stored as the support map of x."""

    __slots__ = ("group", "_coeffs")

    def __init__(self, group: McLainGroup, coeffs: dict[Pair, RingValue]):
        self.group = group
        self._coeffs = coeffs

    def coefficient(self, source: str, target: str) -> RingValue:
        return self._coeffs.get((source, target), self.group.ring.zero)

    def coefficients(self) -> dict[Pair, RingValue]:
        return dict(self._coeffs)

    def support(self) -> Relation:
        return Relation(self.group.relation.nodes, frozenset(self._coeffs))

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
        cross = _splice(self.group, self._coeffs, other._coeffs)
        return GroupElement(self.group, _merge((self._coeffs, other._coeffs, cross)))

    def inverse(self) -> "GroupElement":
        """Alternating power series 1 - x + x^2 - ..., the sum of the
        powers of -x, added up as the power loop produces them."""
        negated = {pair: -value for pair, value in self._coeffs.items()}
        return GroupElement(self.group, _merge(self._powers(negated)))

    def commutator(self, other: "GroupElement") -> "GroupElement":
        """g h g^-1 h^-1, computed by composition."""
        other = self._mate(other)
        return self * other * self.inverse() * other.inverse()

    def nilpotency_index(self) -> int:
        """Least m >= 1 with (g - 1)^m = 0; the identity gives 1."""
        return 1 + sum(1 for _ in self._powers(self._coeffs))

    def _powers(self, base: dict[Pair, RingValue]) -> Iterator[dict[Pair, RingValue]]:
        """The nonzero powers base, base^2, ... of a map on this support.

        A nonzero power base^m walks through m + 1 distinct nodes, so the
        loop is bounded by the number of nodes the support touches;
        running past that bound would mean a non-nilpotent coefficient
        map, which a valid relation cannot produce.
        """
        bound = len(spanned_nodes(self.support()))
        power = base
        exponent = 1
        while power:
            yield power
            power = _splice(self.group, power, base)
            exponent += 1
            if power and exponent > bound:
                raise AssertionError(
                    "power series exceeded the nilpotency bound; "
                    "the ambient relation is corrupted"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        if not self._coeffs:
            return "1"
        parts = [
            f"{self._coeffs[pair]}*e({pair[0]},{pair[1]})"
            for pair in sorted(self._coeffs)
        ]
        return "1 + " + " + ".join(parts)

    def __repr__(self) -> str:
        return str(self)
