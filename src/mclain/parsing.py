"""Parsers for the element text surfaces.

Expression grammar (products evaluate left to right):

    expr := term ("*" term)*
    term := "1" | gen | "inv(" expr ")" | "comm(" expr "," expr ")" | "(" expr ")"
    gen  := "x(" label "," label ";" ringliteral ")"

Labels follow the rule of relation files: printable, no whitespace and
none of ``* ( ) , ; [ ] + #``. Ring literals follow the coefficient ring:
signed decimal for the scalar rings, ``[a,b;c,d]`` for the matrix rings. A
parenthesized expr splices its tokens into the surrounding product. Brackets
nest at most _MAX_NESTING deep, to keep parsing, and the printing, comparing
and hashing of the parsed word, off the recursion limit.

Normal forms, as printed by elements, are also parseable here:

    1
    1 + c*e(i,j) + ...

Order files list one pair per line, ``i j``, in increasing order;
``#`` comments are allowed.
"""

from __future__ import annotations

from .elements import Comm, Gen, GeneratorWord, Inv, McLainGroup
from .relations import _LABEL_PUNCTUATION, Pair, ParseError, _pair_lines, _read_text
from .rings import Ring, RingError

_LABEL_STOP = set(_LABEL_PUNCTUATION + " \t\r\n")
_MAX_NESTING = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # the "(", "inv(" and "comm(" around the current expr

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise ParseError(
                f"expected {expected!r} at position {self.pos} in expression"
            )
        self.pos += 1

    def try_take(self, expected: str) -> bool:
        if self.peek() == expected:
            self.pos += 1
            return True
        return False

    def atom(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _LABEL_STOP:
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected a name at position {self.pos} in expression")
        return self.text[start : self.pos]

    def ring_literal(self) -> str:
        """Raw literal text: a bracketed matrix or a run ending before ')'."""
        self.skip_ws()
        if self.peek() == "[":
            start = self.pos
            end = self.text.find("]", self.pos)
            if end < 0:
                raise ParseError("unterminated matrix literal in expression")
            self.pos = end + 1
            return self.text[start : self.pos]
        start = self.pos
        end = self.text.find(")", self.pos)
        if end < 0:
            raise ParseError("unterminated generator in expression")
        self.pos = end
        return self.text[start:end].strip()

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_element_expression(text: str, ring: Ring) -> GeneratorWord:
    scanner = _Scanner(text)
    word = _parse_expr(scanner, ring)
    if not scanner.done():
        raise ParseError(
            f"trailing input at position {scanner.pos} in expression: "
            f"{scanner.text[scanner.pos:]!r}"
        )
    return word


def _parse_expr(scanner: _Scanner, ring: Ring) -> GeneratorWord:
    if scanner.depth > _MAX_NESTING:
        raise ParseError(f"nesting deeper than {_MAX_NESTING} at position {scanner.pos}")
    scanner.depth += 1
    tokens = list(_parse_term(scanner, ring).tokens)
    while scanner.try_take("*"):
        tokens.extend(_parse_term(scanner, ring).tokens)
    scanner.depth -= 1
    return GeneratorWord(tuple(tokens))


def _parse_term(scanner: _Scanner, ring: Ring) -> GeneratorWord:
    if scanner.try_take("("):
        inner = _parse_expr(scanner, ring)
        scanner.take(")")
        return inner
    name = scanner.atom()
    if name == "1":
        return GeneratorWord(())
    if name == "x":
        scanner.take("(")
        source = scanner.atom()
        scanner.take(",")
        target = scanner.atom()
        scanner.take(";")
        literal = scanner.ring_literal()
        scanner.take(")")
        try:
            value = ring.parse(literal)
        except RingError as exc:
            raise ParseError(f"bad coefficient in generator: {exc}") from exc
        return GeneratorWord((Gen(source, target, value),))
    if name == "inv":
        scanner.take("(")
        inner = _parse_expr(scanner, ring)
        scanner.take(")")
        return GeneratorWord((Inv(inner),))
    if name == "comm":
        scanner.take("(")
        left = _parse_expr(scanner, ring)
        scanner.take(",")
        right = _parse_expr(scanner, ring)
        scanner.take(")")
        return GeneratorWord((Comm(left, right),))
    raise ParseError(f"unknown term {name!r} in expression")


def parse_normal_form(text: str, group: McLainGroup):
    """Parse the printed normal form back into an element of the group."""
    parts = [part.strip() for part in text.split("+")]
    if parts[0] != "1":
        raise ParseError("normal form must start with the bare term 1")
    coeffs = {}
    for part in parts[1:]:
        star = part.rfind("*e(")
        if star < 0 or not part.endswith(")"):
            raise ParseError(f"bad normal-form term: {part!r}")
        literal = part[:star].strip()
        inside = part[star + 3 : -1]
        labels = inside.split(",")
        if len(labels) != 2 or not all(labels):
            raise ParseError(f"bad pair in normal-form term: {part!r}")
        pair = (labels[0].strip(), labels[1].strip())
        if pair in coeffs:
            raise ParseError(f"duplicate pair in normal form: ({pair[0]},{pair[1]})")
        try:
            coeffs[pair] = group.ring.parse(literal)
        except RingError as exc:
            raise ParseError(f"bad coefficient in normal form: {exc}") from exc
    return group.element(coeffs)


def parse_order_text(text: str) -> tuple[Pair, ...]:
    """Pairs one per line, in file order; comments and blanks allowed."""
    return tuple((i, j) for i, j in _pair_lines(text, node_lines=False))


def parse_order_file(path: str) -> tuple[Pair, ...]:
    return parse_order_text(_read_text(path))
