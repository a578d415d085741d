"""The row-map kernels against one couple-scan product, on drawn input,
the normal form of row maps, the label contract at the edges of an
element, and the ring hook under the product and the division.

Coefficient maps are row maps in the relation's node numbering, each row's
number to a dict from target numbers to payloads, and a composite is
admitted by a bit test on a successor row.
The oracle in ``tests/oracles.py`` multiplies maps keyed by label pairs
by testing every couple of pairs, with admission by a lookup in the pair
set; its inverse is the alternating series, and division, generator runs,
the commutator and words are folds of those. Every result here is
translated back to label pairs with ``helpers.recode``, which works the
numbering out from the node set on its own, and must equal the oracle's:
products, right divisions, generator runs, inverses, commutators and
``eval_word``, in all three rings. Relations are valid pruned orders over
labels where sorted order is not numeric order ("10" < "9"), with
isolated nodes, and the relations of ``helpers.relation_zoo``, whose
n-gons, 2-cycle and random relations are not orders. Each comparison is
of whole maps, so a kernel that stores a zero coefficient fails it with
an extra key. An empty row translates to nothing, so the normal form of
every map a kernel or a factorization returns, no empty row and no zero
payload, is checked on its own, with the kernels' inputs left as they were
and equal elements built by different routes equal and hashed alike.

``Ring._axpy`` adds a row of products into a list of sums indexed by node
number and may leave them unreduced; after one ``_add`` from zero they
must equal the fold of ``_fma``, in each ring, and ``_add``, ``_neg`` and
``_fma`` must reduce what it leaves. Each ring defines its own ``_axpy``;
the base defines none of the payload hooks.

The seeded sweep of the same kernels on wide relations, where an output
row is nearly empty, and on more relations whose composites fall outside
them, runs without hypothesis in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import operator
import random
import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

import mclain.factorization  # noqa: E402
from helpers import both_maps, mixed_word, random_factors, recode  # noqa: E402
from mclain import (  # noqa: E402
    Gen,
    GeneratorWord,
    GroupElement,
    Integers,
    IntegersMod,
    Matrices2x2Mod,
    McLainGroup,
    OrderedForm,
    Relation,
    Ring,
    chain,
    coset_representative,
    from_pairs,
    minimal_closed_support,
    normal_closure,
    ordered_factorization,
    quotient_project,
    word_factorization,
)
from mclain.elements import (  # noqa: E402
    _divide,
    _generators_times,
    _ordered_product,
    _payloads,
    _product,
)
from oracles import (  # noqa: E402
    payload_fma,
    scan_commutator,
    scan_divide,
    scan_eval_word,
    scan_generators_times,
    scan_payloads,
    scan_product,
    scan_splice,
)
from strategies import payloads, profile, zoo_or_valid  # noqa: E402

RINGS = (Integers(), IntegersMod(4), Matrices2x2Mod(2))


@st.composite
def groups(draw):
    """A group over a drawn valid relation, an order or one of the zoo's,
    and one of the three rings, with a seeded generator for its elements.
    The generator is a ``random.Random`` from a drawn seed: hypothesis's own
    randoms shrink towards the first choice every time, which would draw the
    same pair again and again."""
    delta = draw(zoo_or_valid)
    ring = draw(st.sampled_from(RINGS))
    return McLainGroup(delta, ring), random.Random(draw(st.integers(0, 2**32)))


def factors_of(group: McLainGroup, rng, length: int) -> list:
    return random_factors(group, rng, length) if group.relation.pairs else []


@profile(150)
@given(groups())
def test_products_splices_and_divisions_match(case):
    group, rng = case
    relation = group.relation
    (x, lx), (y, ly) = both_maps(group, rng), both_maps(group, rng)
    assert recode(relation, _product(group, x, y)) == scan_product(group, lx, ly)
    assert recode(relation, _divide(group, x, y)) == scan_divide(group, lx, ly)
    assert recode(relation, _divide(group, {}, x)) == scan_divide(group, {}, lx)


@profile(150)
@given(groups())
def test_inverses_and_commutators_match(case):
    group, rng = case
    (x, lx), (y, ly) = both_maps(group, rng), both_maps(group, rng)
    g, h = GroupElement(group, x), GroupElement(group, y)
    relation = group.relation
    assert recode(relation, g.inverse()._coeffs) == scan_divide(group, {}, lx)
    assert recode(relation, g.commutator(h)._coeffs) == scan_commutator(group, lx, ly)
    assert recode(relation, (g * h)._coeffs) == scan_product(group, lx, ly)


@profile(150)
@given(groups(), st.integers(0, 12))
def test_generator_runs_match(case, length):
    group, rng = case
    x, lx = both_maps(group, rng)
    factors = factors_of(group, rng, length)
    payloads = list(_payloads(group, factors))
    label_factors = scan_payloads(group.ring, factors)
    assert [recode(group.relation, {i: {l: c}}).popitem() for (i, l), c in payloads] == (
        label_factors
    )
    got = _generators_times(group, payloads, x)
    assert recode(group.relation, got) == scan_generators_times(group, label_factors, lx)


@profile(150)
@given(groups())
def test_eval_word_matches(case):
    group, rng = case
    word = mixed_word(group, rng) if group.relation.pairs else GeneratorWord(())
    got = group.eval_word(word)._coeffs
    assert recode(group.relation, got) == scan_eval_word(group, word)


def assert_normal(group: McLainGroup, rows: dict) -> None:
    """No empty row, and no zero payload."""
    zero = group.ring._zero
    assert all(rows.values()), f"an empty row in {rows}"
    assert all(c != zero for row in rows.values() for c in row.values()), rows


@profile(150)
@given(groups(), st.integers(0, 8))
def test_every_row_map_is_in_normal_form(case, length):
    group, rng = case
    delta = group.relation
    if not delta.pairs:
        return
    (x, _), (y, _) = both_maps(group, rng), both_maps(group, rng)
    given_maps = [{i: dict(row) for i, row in m.items()} for m in (x, y)]
    payloads = list(_payloads(group, factors_of(group, rng, length)))
    maps = [
        _product(group, x, y),
        _product(group, x, _divide(group, {}, x)),  # every row cancels
        _divide(group, x, y),
        _divide(group, x, x),
        _generators_times(group, payloads, x),
        _ordered_product(group, payloads),
        group.eval_word(mixed_word(group, rng))._coeffs,
    ]
    g, h = GroupElement(group, x), GroupElement(group, y)
    gamma = normal_closure(delta.subset([rng.choice(sorted(delta.pairs))]), delta)
    maps += [quotient_project(g, gamma)._coeffs, coset_representative(g, gamma)._coeffs]
    residuals = []  # what each pass of the word factorization leaves
    honest = mclain.factorization._generators_times

    def recording(*args):
        residuals.append(honest(*args))
        return residuals[-1]

    with mock.patch.object(mclain.factorization, "_generators_times", recording):
        word = word_factorization(g)
    assert residuals[-1:] in ([], [{}])
    for rows in maps + residuals:
        assert_normal(group, rows)
    assert [x, y] == given_maps  # no call changed a map it was given
    order = tuple(sorted(minimal_closed_support(g).pairs))
    routes = [
        group.eval_word(word),
        g * h * h.inverse(),
        group.element(g.coefficients()),
        ordered_factorization(g, order).product(),
    ]
    for twin in routes:
        assert twin == g and hash(twin) == hash(g)


# ---------------------------------------------------------------------------
# the ring hook under the product and the division


def reduced(ring, raw):
    """A raw sum reduced into [0, n), entrywise for M2(Z/n); as is over Z."""
    if isinstance(ring, Integers):
        return raw
    return tuple(x % ring.n for x in raw) if isinstance(raw, tuple) else raw % ring.n


def entrywise(op, *raws):
    return tuple(map(op, *raws)) if isinstance(raws[0], tuple) else op(*raws)


@profile(300)
@given(st.data())
def test_axpy_folds_fma_and_the_hooks_reduce_what_it_leaves(data):
    ring = data.draw(st.sampled_from(RINGS))
    zero, canonical = ring._zero, payloads(ring)
    rows = st.lists(st.tuples(st.integers(0, 6), canonical), max_size=6)
    calls = st.lists(st.tuples(canonical, rows), max_size=6)
    start = data.draw(st.dictionaries(st.integers(0, 6), canonical, max_size=4))
    sums = [start.get(l, zero) for l in range(7)]
    folded = list(sums)
    for a, row in data.draw(calls):
        ring._axpy(sums, a, row)
        for l, b in row:
            folded[l] = ring._fma(folded[l], a, b)
    assert [ring._add(zero, s) for s in sums] == folded
    s, t, a, b = (data.draw(payloads(ring, reduced=False)) for _ in range(4))
    assert ring._add(s, t) == reduced(ring, entrywise(operator.add, s, t))
    assert ring._neg(s) == reduced(ring, entrywise(operator.neg, s))
    assert ring._fma(s, a, b) == payload_fma(ring, s, a, b)


def test_each_ring_defines_its_row_kernel_and_the_base_none():
    """The base defines no payload hook, ``_axpy`` included, so a ring that
    defines ``_fma`` alone gets no row kernel folded from it. Its ``value``
    raises ``NotImplementedError``."""
    for name in ("_zero", "_add", "_neg", "_fma", "_axpy", "_format"):
        assert not hasattr(Ring, name), name
    with pytest.raises(NotImplementedError):
        Ring().value(0)
    for ring in RINGS:
        assert hasattr(ring, "_axpy"), ring


# ---------------------------------------------------------------------------
# the label contract at the edges


ISOLATED = from_pairs(
    [("9", "10"), ("10", "11"), ("9", "11"), ("11", "2"), ("a", "b")], ["1", "5", "c"]
)


def test_pairs_outside_the_relation_raise_value_error_naming_the_pair():
    group = McLainGroup(ISOLATED, IntegersMod(5))
    # a pair over known labels that the relation lacks, and pairs with a
    # label outside the node set, on every route that validates values
    for i, j in (("10", "9"), ("9", "2"), ("1", "5"), ("9", "zz"), ("zz", "10")):
        message = re.escape(f"pair ({i},{j}) is not in the relation")
        with pytest.raises(ValueError, match=message):
            group.element({(i, j): 1})
        with pytest.raises(ValueError, match=message):
            group.generator(i, j, 0)
        with pytest.raises(ValueError, match=message):
            group.eval_word(GeneratorWord((Gen(i, j, group.ring.one),)))
        with pytest.raises(ValueError, match=message):
            OrderedForm(group, ((i, j),), {(i, j): group.ring.one}).product()


def test_coefficient_of_an_unknown_label_or_pair_is_zero():
    group = McLainGroup(ISOLATED, IntegersMod(5))
    g = group.element({("9", "10"): 2, ("a", "b"): 3})
    zero = group.ring.zero
    assert g.coefficient("9", "10") == group.ring.from_int(2)
    for i, j in (("zz", "9"), ("9", "zz"), ("zz", "zz"), ("10", "9"), ("1", "5")):
        assert g.coefficient(i, j) == zero
    assert g.coefficients() == {
        ("9", "10"): group.ring.from_int(2),
        ("a", "b"): group.ring.from_int(3),
    }
    assert str(g) == "1 + 2*e(9,10) + 3*e(a,b)"


def test_elements_of_equal_distinct_groups_are_equal_and_hash_alike():
    pairs = sorted(ISOLATED.pairs)
    twin = from_pairs(reversed(pairs), sorted(ISOLATED.nodes, reverse=True))
    assert twin == ISOLATED and twin is not ISOLATED
    for ring in RINGS:
        one, other = McLainGroup(ISOLATED, ring), McLainGroup(twin, ring)
        values = {pair: ring.from_int(k + 1) for k, pair in enumerate(pairs)}
        g = one.element(values)
        h = other.element(dict(reversed(list(values.items()))))
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert str(g) == str(h)
        assert g * h == g * g and (g * h.inverse()).is_identity()


@profile(150)
@given(groups())
@example((McLainGroup(chain(3), Matrices2x2Mod(2)), random.Random(9)))  # x^2 cancels
def test_quotients_cosets_and_nilpotency_match_the_oracle(case):
    group, rng = case
    delta = group.relation
    # The drawn relations carry isolated nodes; add more so that every
    # example has some.
    delta = Relation(delta.nodes | {"iso", "9"}, delta.pairs)
    group = McLainGroup(delta, group.ring)
    if not delta.pairs:
        return
    x, lx = both_maps(group, rng)
    g = GroupElement(group, x)
    gamma = normal_closure(delta.subset([rng.choice(sorted(delta.pairs))]), delta)

    projected = quotient_project(g, gamma)
    kept = {p: c for p, c in lx.items() if p not in gamma.pairs}
    assert projected.group.relation.pairs == delta.pairs - gamma.pairs
    assert projected.group.relation.nodes == delta.nodes
    assert recode(delta, projected._coeffs) == kept

    r = coset_representative(g, gamma)
    lr = recode(delta, r._coeffs)
    # r lies in g's coset: r agrees with g off gamma, and g r^-1 lies over gamma
    assert {p: c for p, c in lr.items() if p not in gamma.pairs} == kept
    assert scan_divide(group, lx, lr).keys() <= gamma.pairs

    power, index = lx, 1
    while power:
        power = scan_splice(group, power, lx, {})
        index += 1
    assert g.nilpotency_index() == index
