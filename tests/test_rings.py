"""Ring arithmetic: frozen examples, algebraic laws, literals, coercion."""

from __future__ import annotations

import itertools
import random

import pytest

from mclain import Integers, IntegersMod, Matrices2x2Mod, RingError, parse_ring_spec
from oracles import payload_fma


def test_ring_spec_strings_round_trip():
    for text, ring in [
        ("Z", Integers()),
        ("Z/5", IntegersMod(5)),
        ("Z/2", IntegersMod(2)),
        ("M2(Z/3)", Matrices2x2Mod(3)),
    ]:
        assert parse_ring_spec(text) == ring
        assert str(ring) == text
    assert parse_ring_spec(" M2( Z/7 ) ") == Matrices2x2Mod(7)


def test_ring_spec_rejects_garbage():
    for bad in ["Q", "Z/", "Z/0", "Z/1", "M2(Z)", "M2(Z/2", "", "Z//3", "z"]:
        with pytest.raises(RingError):
            parse_ring_spec(bad)


def test_modulus_must_be_at_least_two():
    with pytest.raises(RingError):
        IntegersMod(1)
    with pytest.raises(RingError):
        Matrices2x2Mod(0)


def test_integer_literals():
    ring = Integers()
    assert ring.parse("-3").payload == -3
    assert ring.parse("17").payload == 17
    assert ring.parse("+4").payload == 4
    # U+2212 minus normalizes to the ASCII one.
    assert ring.parse("−3") == ring.from_int(-3)
    assert str(ring.from_int(-3)) == "-3"


def test_mod_literals_reduce():
    ring = IntegersMod(5)
    assert ring.parse("7") == ring.from_int(2)
    assert ring.parse("-3") == ring.from_int(2)
    assert str(ring.parse("7")) == "2"


def test_matrix_literals():
    ring = Matrices2x2Mod(3)
    v = ring.parse("[1,2;0,4]")
    assert v.payload == (1, 2, 0, 1)
    assert str(v) == "[1,2;0,1]"
    assert ring.parse(" [ 1 , 2 ; 0 , 4 ] ") == v
    assert ring.from_int(2).payload == (2, 0, 0, 2)


def test_literal_shape_mismatches_raise():
    with pytest.raises(RingError):
        Matrices2x2Mod(3).parse("5")
    with pytest.raises(RingError):
        IntegersMod(5).parse("[1,0;0,1]")
    with pytest.raises(RingError):
        Integers().parse("[1,0;0,1]")
    for bad in ["", "x", "1.5", "[1,2;3]", "[1,2;3,4", "one"]:
        with pytest.raises(RingError):
            Integers().parse(bad)
        with pytest.raises(RingError):
            Matrices2x2Mod(2).parse(bad)


def test_print_parse_idempotent():
    rng = random.Random(7)
    for ring in [Integers(), IntegersMod(5), Matrices2x2Mod(3)]:
        for _ in range(100):
            v = ring.sample(rng)
            assert ring.parse(str(v)) == v


def test_frozen_mod_arithmetic():
    ring = IntegersMod(5)
    assert ring.from_int(3) + ring.from_int(4) == ring.from_int(2)
    assert ring.from_int(3) * ring.from_int(4) == ring.from_int(2)
    assert -ring.from_int(3) == ring.from_int(2)
    assert ring.from_int(1) - ring.from_int(3) == ring.from_int(3)


def test_frozen_matrix_products_do_not_commute():
    ring = Matrices2x2Mod(3)
    a = ring.value((0, 1, 0, 0))
    b = ring.value((0, 0, 1, 0))
    assert (a * b).payload == (1, 0, 0, 0)
    assert (b * a).payload == (0, 0, 0, 1)
    assert a * b != b * a


def _check_laws(ring, triples):
    zero, one = ring.zero, ring.one
    assert zero != one
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a + (-a) == zero
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert one * a == a
        assert a * one == a
        assert zero * a == zero
        assert a * zero == zero


def test_ring_laws_random():
    rng = random.Random(20260819)
    for ring in [Integers(), IntegersMod(5), IntegersMod(6), Matrices2x2Mod(2), Matrices2x2Mod(3)]:
        triples = [
            (ring.sample(rng), ring.sample(rng), ring.sample(rng)) for _ in range(1000)
        ]
        _check_laws(ring, triples)


def test_ring_laws_exhaustive_on_tiny_rings():
    ring = IntegersMod(2)
    _check_laws(ring, itertools.product(ring.elements(), repeat=3))
    ring = Matrices2x2Mod(2)
    _check_laws(ring, itertools.product(ring.elements(), repeat=3))


def test_element_counts():
    assert len(list(IntegersMod(3).elements())) == 3
    assert len(list(Matrices2x2Mod(2).elements())) == 16
    with pytest.raises(RingError):
        list(Integers().elements())


def test_cross_ring_operations_raise():
    a = IntegersMod(5).from_int(1)
    b = IntegersMod(7).from_int(1)
    c = Integers().from_int(1)
    for x, y in [(a, b), (a, c), (c, Matrices2x2Mod(2).one)]:
        with pytest.raises(RingError):
            x + y
        with pytest.raises(RingError):
            x * y
    with pytest.raises(RingError, match="expected a ring value, got 1"):
        a + 1


def test_coerce():
    ring = IntegersMod(5)
    assert ring.coerce(7) == ring.from_int(2)
    assert ring.coerce(ring.from_int(3)) == ring.from_int(3)
    with pytest.raises(RingError):
        ring.coerce(True)
    with pytest.raises(RingError):
        ring.coerce(Integers().from_int(3))
    with pytest.raises(RingError):
        ring.coerce("3")
    assert Matrices2x2Mod(3).coerce(4).payload == (1, 0, 0, 1)


def test_value_reduces_a_payload_and_refuses_a_malformed_one():
    # value(payload) is the ring's canonical form of a raw payload: reduced
    # mod n, unchanged in Z, entrywise for the matrices.
    assert IntegersMod(5).value(7).payload == 2
    assert IntegersMod(5).value(-3).payload == 2
    assert Integers().value(-3).payload == -3
    assert Matrices2x2Mod(3).value((4, 5, 6, 7)).payload == (1, 2, 0, 1)
    refused = [
        (Integers(), True, "Z payload must be an int, got True"),
        (IntegersMod(5), True, "Z/5 payload must be an int, got True"),
        (IntegersMod(5), "3", "Z/5 payload must be an int, got '3'"),
        (Matrices2x2Mod(3), (1, 2, 3), "M2(Z/3) payload must be a 4-tuple, got (1, 2, 3)"),
        (
            Matrices2x2Mod(3),
            (1, 2, 3, True),
            "M2(Z/3) payload entries must be ints, got (1, 2, 3, True)",
        ),
    ]
    for ring, payload, message in refused:
        with pytest.raises(RingError) as excinfo:
            ring.value(payload)
        assert str(excinfo.value) == message


def test_truthiness_tracks_zero():
    ring = IntegersMod(4)
    assert not ring.zero
    assert ring.one
    assert not ring.from_int(4)


@pytest.mark.parametrize(
    "ring", [IntegersMod(4), IntegersMod(7), Matrices2x2Mod(2), Integers()], ids=str
)
def test_payload_contract(ring):
    """Zero is one constant payload compared with ==, and a product is the
    ring's _fma from that zero. _zero is a class constant, not a field, so
    ring equality, hash and repr still see only the modulus."""
    assert ring._zero == ring.from_int(0).payload
    assert ring.zero == ring.from_int(0)
    assert "_zero" not in vars(ring)
    fields = {} if isinstance(ring, Integers) else {"n": ring.n}
    assert vars(ring) == fields
    twin = type(ring)(**fields)
    assert twin == ring and hash(twin) == hash(ring)
    assert repr(ring) == type(ring).__name__ + ("()" if not fields else f"(n={ring.n})")
    if isinstance(ring, Integers):
        values = [ring.from_int(k) for k in (-(10**20), -3, -1, 0, 1, 2, 10**20)]
    else:
        values = list(ring.elements())
    for v in values:
        assert bool(v) == (v.payload != ring._zero)
    for a, b in itertools.product(values, repeat=2):
        assert (a * b).payload == payload_fma(ring, ring._zero, a.payload, b.payload)
