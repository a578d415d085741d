"""The immutable value classes: construction, equality, hash, repr and
immutability, pinned class by class.

Every public record of the package is listed with the field values it is
built from and its repr. The rings come three times, once per concrete
ring. ``import mclain`` and each command load only the package modules
they use, and neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mclain import (
    AxiomReport,
    Comm,
    ExchangeViolation,
    FactorReport,
    Gen,
    GeneratorWord,
    Integers,
    IntegersMod,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    NgonReport,
    OrderedForm,
    ReflexiveViolation,
    Relation,
    RingError,
    SubsetChain,
)
from mclain.rings import Ring, RingValue

SRC = Path(__file__).resolve().parents[1] / "src"
REL = "Relation([('1', '2')])"
Z7 = "IntegersMod(n=7)"
WORD = "GeneratorWord(tokens=(Inv(word=GeneratorWord(tokens=())),))"


def rel():
    return Relation(frozenset({"1", "2"}), frozenset({("1", "2")}))


def word():
    return GeneratorWord((Inv(GeneratorWord()),))


# Each case: the class, a function giving fresh field values by name, and
# the repr of the record built from them.
CASES = [
    (RingValue, lambda: {"ring": IntegersMod(7), "payload": 3}, "<Z/7 value 3>"),
    (Ring, dict, "Ring()"),
    (Integers, dict, "Integers()"),
    (IntegersMod, lambda: {"n": 7}, Z7),
    (Matrices2x2Mod, lambda: {"n": 3}, "Matrices2x2Mod(n=3)"),
    (ReflexiveViolation, lambda: {"pair": ("a", "a")}, "ReflexiveViolation(pair=('a', 'a'))"),
    (
        ExchangeViolation,
        lambda: {
            "quadruple": ("1", "2", "3", "4"),
            "present": ("1", "3"),
            "absent": ("2", "4"),
        },
        "ExchangeViolation(quadruple=('1', '2', '3', '4'), "
        "present=('1', '3'), absent=('2', '4'))",
    ),
    (
        AxiomReport,
        lambda: {"valid": True, "violations": ()},
        "AxiomReport(valid=True, violations=())",
    ),
    (Relation, lambda: {"nodes": rel().nodes, "pairs": rel().pairs}, REL),
    (
        SubsetChain,
        lambda: {"direction": "descending", "terms": (rel(),)},
        f"SubsetChain(direction='descending', terms=({REL},))",
    ),
    (
        Gen,
        lambda: {"source": "1", "target": "2", "value": IntegersMod(7).from_int(3)},
        "Gen(source='1', target='2', value=<Z/7 value 3>)",
    ),
    (Inv, lambda: {"word": word()}, f"Inv(word={WORD})"),
    (
        Comm,
        lambda: {"left": word(), "right": GeneratorWord()},
        f"Comm(left={WORD}, right=GeneratorWord(tokens=()))",
    ),
    (GeneratorWord, lambda: {"tokens": word().tokens}, WORD),
    (
        McLainGroup,
        lambda: {"relation": rel(), "ring": IntegersMod(7)},
        f"McLainGroup(relation={REL}, ring={Z7})",
    ),
    (
        FactorReport,
        lambda: {"level": 1, "support": rel(), "rank": 1, "ring": IntegersMod(7)},
        f"FactorReport(level=1, support={REL}, rank=1, ring={Z7})",
    ),
]
BY_IDENTITY = [
    (
        OrderedForm,
        lambda: {
            "group": McLainGroup(rel(), IntegersMod(7)),
            "order": (("1", "2"),),
            "coefficients": {("1", "2"): IntegersMod(7).from_int(3)},
        },
        f"OrderedForm(group=McLainGroup(relation={REL}, ring={Z7}), order=(('1', '2'),), "
        "coefficients={('1', '2'): <Z/7 value 3>})",
    ),
    (
        NgonReport,
        lambda: {
            "n": 4,
            "ring": IntegersMod(7),
            "orderings_checked": 24,
            "successes": 0,
            "every_failure_has_step_two_term": True,
            "unit_coefficients_forced": True,
            "mixed_word": GeneratorWord(),
            "mixed_word_matches": True,
            "mixed_word_uses_step_two": True,
        },
        f"NgonReport(n=4, ring={Z7}, orderings_checked=24, successes=0, "
        "every_failure_has_step_two_term=True, unit_coefficients_forced=True, "
        "mixed_word=GeneratorWord(tokens=()), mixed_word_matches=True, "
        "mixed_word_uses_step_two=True)",
    ),
]


def ids(case):
    return case[0].__name__


@pytest.mark.parametrize("case", CASES + BY_IDENTITY, ids=ids)
def test_construction_repr_and_immutability(case):
    cls, values, text = case
    fields = values()
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
        assert repr(record) == text
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    if fields and cls is not GeneratorWord:  # the one record with a default
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_equal_fields_compare_equal_and_hash_alike(case):
    cls, values, _ = case
    a, b = cls(**values()), cls(**values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != tuple(values().values())


@pytest.mark.parametrize("case", BY_IDENTITY, ids=ids)
def test_reports_and_forms_compare_by_identity(case):
    cls, values, _ = case
    a, b = cls(**values()), cls(**values())
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_rings_of_different_classes_stay_unequal():
    assert IntegersMod(4) != Matrices2x2Mod(4)
    assert Matrices2x2Mod(4) != IntegersMod(4)
    assert IntegersMod(4) != IntegersMod(5)
    assert Integers() == Integers() and hash(Integers()) == hash(Integers())
    assert len({IntegersMod(4), Matrices2x2Mod(4), IntegersMod(4), Integers()}) == 3


def test_defaults_and_positional_patterns():
    assert GeneratorWord().tokens == ()
    assert GeneratorWord() == GeneratorWord(()) == GeneratorWord(tokens=())
    match IntegersMod(7):
        case IntegersMod(n):
            assert n == 7


def test_post_init_validation_still_fires():
    with pytest.raises(RingError, match="modulus must be an integer >= 2, got 1"):
        IntegersMod(1)
    with pytest.raises(RingError, match="got 0"):
        Matrices2x2Mod(n=0)
    with pytest.raises(ValueError, match=r"pair \(a,b\) uses a node outside the node set"):
        Relation(frozenset({"a"}), frozenset({("a", "b")}))
    with pytest.raises(ValueError, match="bad chain direction: 'sideways'"):
        SubsetChain("sideways", ())
    gen = Gen("1", "2", IntegersMod(7).from_int(3))
    message = f"bad word token: ({gen!r},)"
    assert message == (
        "bad word token: (Gen(source='1', target='2', value=<Z/7 value 3>),)"
    )
    with pytest.raises(ValueError) as excinfo:
        GeneratorWord(((gen,),))
    assert str(excinfo.value) == message


def test_relation_index_is_built_once_and_cached(monkeypatch):
    built = []
    prop = Relation.__dict__["_index"]
    real = prop.func

    def counting(relation):
        built.append(relation)
        return real(relation)

    monkeypatch.setattr(prop, "func", counting)
    relation = rel()
    first = relation._index
    assert relation._index is first
    assert relation.axiom_report.valid
    assert relation._index.succ == [[1], []]
    assert len(built) == 1 and built[0] is relation
    assert vars(relation)["_index"] is first
    # an equal relation builds its own index, once, successor lists included
    other = rel()
    assert other._index.succ == [[1], []] and other._index == first
    assert len(built) == 2 and built[1] is other
    assert relation == rel() and hash(relation) == hash(rel())


_CHECK = ["mclain", "mclain._record", "mclain.cli", "mclain.relations", "mclain.rings"]
_EVAL = sorted(_CHECK + ["mclain.elements", "mclain.parsing"])
_FACTOR = sorted(_EVAL + ["mclain.factorization"])
_DEMO = sorted(_CHECK + ["mclain.elements", "mclain.factorization"])


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(None, ["mclain"], id="import"),
        pytest.param(["check", "REL"], _CHECK, id="check"),
        pytest.param(["series", "REL", "--lower"], _CHECK + ["mclain.series"], id="lower"),
        pytest.param(["series", "REL", "--upper"], _CHECK + ["mclain.series"], id="upper"),
        pytest.param(["eval", "--relation", "REL", "x(1,2;2)"], _EVAL, id="eval"),
        pytest.param(["factor", "--relation", "REL", "x(1,3;2)"], _FACTOR, id="factor"),
        pytest.param(
            ["quotient", "--relation", "REL", "--gamma", "GAMMA", "x(1,2;2)"],
            _FACTOR,
            id="quotient",
        ),
        pytest.param(["demo-ngon", "4"], _DEMO, id="demo-ngon"),
    ],
)
def test_each_command_loads_only_the_modules_it_uses(tmp_path, argv, loaded):
    # The package reads each public name from its module on first use, and
    # each cli handler imports what it calls, so a command compiles only
    # the modules it runs; demo-ngon parses no element, so not parsing.
    rel, gamma = tmp_path / "rel.txt", tmp_path / "gamma.txt"
    rel.write_text("1 2\n1 3\n2 3\n")
    gamma.write_text("1 3\n")
    names = {"REL": str(rel), "GAMMA": str(gamma)}
    if argv is None:
        run = "code = 0"
    else:
        argv = [names.get(arg, arg) for arg in argv]
        run = f"import mclain.cli; code = mclain.cli.main({argv!r})"
    probe = (
        f"import mclain, sys; {run}; "
        "print(code, *sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('mclain', 'dataclasses', 'inspect')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1].split() == ["0", *loaded]
