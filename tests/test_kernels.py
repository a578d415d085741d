"""The kernels on seeded inputs, with no hypothesis.

The values of the kernels against the couple-scan oracle, on drawn
inputs, are ``tests/test_code_kernels.py``'s; this module holds what
runs without hypothesis:

* the words ``word_factorization`` peels, pinned token for token;
* the validation of every factor of an ordered product and of every
  generator of a word, zero values included;
* one table of public operations, each with the exact number of calls it
  makes to each kernel (``_product``, ``_divide`` where
  ``elements`` and ``factorization`` look it up, and
  ``GroupElement.inverse``) and the oracle's value it must equal. The
  one-generator products make no call at all, an inverse is one division,
  and so on; the row ``g*g`` shows that the patches are live;
* a seeded sweep of products, inverses, commutators and right divisions
  against the oracle, where an output row is nearly empty (four-term
  elements on wide relations), where composites fall outside the relation
  (n-gons, pruned orders, rejection-sampled relations) and in M2(Z/3);
* cancellations that must leave no zero coefficient behind.
"""

from __future__ import annotations

import random

import pytest

import mclain.elements
import mclain.factorization
from helpers import (
    both_maps,
    counting,
    dense_element,
    gen_word,
    random_element,
    random_factors,
    recode,
    some_zero,
)
from mclain import (
    Gen,
    GeneratorWord,
    GroupElement,
    Integers,
    IntegersMod,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    OrderedForm,
    RingError,
    bracket,
    chain,
    coset_representative,
    format_word,
    ngon,
    ordered_factorization,
    random_pruned_order,
    random_relation,
    word_factorization,
)
from mclain.elements import _divide
from oracles import (
    naive_word_factorization,
    scan_commutator,
    scan_divide,
    scan_eval_word,
    scan_inverse,
    scan_payloads,
    scan_product,
    scanned,
)

# Tokens emitted by word_factorization before the row kernel took over its
# undos, pinned so that the peeling order and the peeled values stay put.
WORD_PINS = [
    (
        chain(4), IntegersMod(5), 1,
        "x(1,2;1)*x(2,3;2)*x(3,4;3)*x(1,3;2)*x(2,4;4)",
    ),
    (
        ngon(5), Matrices2x2Mod(2), 2,
        "x(0,1;[0,0;0,1])*x(1,2;[0,0;1,1])*x(2,3;[0,1;1,1])*x(3,4;[1,0;0,1])"
        "*x(4,0;[0,1;1,1])*x(0,2;[0,1;0,1])*x(1,3;[1,1;0,0])*x(2,4;[1,0;1,1])"
        "*x(3,0;[0,1;1,1])*x(4,1;[1,1;1,0])",
    ),
    (
        random_pruned_order(302, 6, 0.7), Integers(), 3,
        "x(1,4;-2)*x(2,4;8)*x(3,2;2)*x(4,6;9)*x(6,5;-7)*x(1,6;27)*x(2,6;-77)"
        "*x(3,4;6)",
    ),
]


@pytest.mark.parametrize("delta, ring, seed, text", WORD_PINS)
def test_word_factorization_tokens_are_pinned(delta, ring, seed, text):
    group = McLainGroup(delta, ring)
    rng = random.Random(seed)
    g = group.element({pair: ring.sample(rng) for pair in sorted(delta.pairs)})
    word = word_factorization(g)
    assert format_word(word) == text
    assert group.eval_word(word) == g


# ---------------------------------------------------------------------------
# validation of every factor, zero values included


Z7 = IntegersMod(7)
FOREIGN = IntegersMod(5)


@pytest.mark.parametrize("k", [0, 3])
def test_ordered_product_validates_every_factor(k):
    group = McLainGroup(chain(3), Z7)
    outside = OrderedForm(
        group, (("1", "2"), ("3", "1")), {("1", "2"): Z7.one, ("3", "1"): Z7.from_int(k)}
    )
    with pytest.raises(ValueError, match=r"pair \(3,1\) is not in the relation"):
        outside.product()
    foreign = OrderedForm(
        group,
        (("1", "2"), ("2", "3")),
        {("1", "2"): Z7.one, ("2", "3"): FOREIGN.from_int(k)},
    )
    with pytest.raises(RingError):
        foreign.product()


@pytest.mark.parametrize("k", [0, 3])
def test_eval_word_validates_every_generator(k):
    group = McLainGroup(chain(3), Z7)
    lead = Gen("1", "2", Z7.one)
    outside = GeneratorWord((lead, Gen("3", "1", Z7.from_int(k))))
    with pytest.raises(ValueError, match=r"pair \(3,1\) is not in the relation"):
        group.eval_word(outside)
    foreign = GeneratorWord((lead, Gen("2", "3", FOREIGN.from_int(k))))
    with pytest.raises(RingError):
        group.eval_word(foreign)


# ---------------------------------------------------------------------------
# the kernel calls of each public operation


def shuffled_factors(group, pairs, rng):
    """(pair, value) for each of the pairs in a shuffled order, some zero."""
    order = sorted(pairs)
    rng.shuffle(order)
    return [(pair, some_zero(group.ring, rng)) for pair in order]


def case_ordered_product(group, g, rng):
    factors = shuffled_factors(group, group.relation.pairs, rng)
    form = OrderedForm(group, tuple(p for p, _ in factors), dict(factors))
    return form.product, scanned(group, scan_eval_word, gen_word(factors))


def case_generator_run(group, g, rng):
    word = gen_word(random_factors(group, rng, 10))
    return lambda: group.eval_word(word), scanned(group, scan_eval_word, word)


def case_ordered_factorization(group, g, rng):
    # the ordered form of an element is unique, so it is the one it was made from
    factors = shuffled_factors(group, group.relation.pairs, rng)
    order = tuple(p for p, _ in factors)
    made = OrderedForm(group, order, dict(factors)).product()
    return lambda: ordered_factorization(made, order).coefficients, dict(factors)


def case_word_factorization(group, g, rng):
    return lambda: word_factorization(g), naive_word_factorization(g)


def case_square(group, g, rng):
    return lambda: g * g, scanned(group, scan_product, g, g)


def case_inverse(group, g, rng):
    return g.inverse, scanned(group, scan_inverse, g)


def case_commutator(group, g, rng):
    h = dense_element(group, rng)
    return lambda: g.commutator(h), scanned(group, scan_commutator, g, h)


def case_word_times_inverse(group, g, rng):
    h = dense_element(group, rng)
    g_run, h_run = (gen_word(sorted(x.coefficients().items())) for x in (g, h))
    word = GeneratorWord((*g_run, Inv(h_run)))
    return lambda: group.eval_word(word), scanned(group, scan_eval_word, word)


def case_coset_representative(group, g, rng):
    # gamma_3 is normal; an element made of generators off gamma in sorted
    # pair order, times any element over gamma, has it as its representative
    delta = group.relation
    gamma = bracket(bracket(delta, delta, delta), delta, delta)
    kept = [(p, some_zero(group.ring, rng)) for p in sorted(delta.pairs - gamma.pairs)]
    expected = scanned(group, scan_eval_word, gen_word(kept))
    member = expected * group.element({p: group.ring.sample(rng) for p in gamma.pairs})
    return lambda: coset_representative(member, gamma), expected


# Each public operation, with the calls it makes to the kernels it names;
# to any other it makes none.
CALL_TABLE = [
    ("ordered_product", case_ordered_product, {}),
    ("generator_run", case_generator_run, {}),
    ("ordered_factorization", case_ordered_factorization, {}),
    ("word_factorization", case_word_factorization, {}),
    ("g*g", case_square, {"_product": 1}),
    ("inverse", case_inverse, {"inverse": 1, "_divide": 1}),
    ("commutator", case_commutator, {"_product": 2, "_divide": 1}),
    ("word_times_inverse", case_word_times_inverse, {"_divide": 1}),
    ("coset_representative", case_coset_representative, {"factorization._divide": 1}),
]
COUNTED = ("_product", "_divide", "factorization._divide", "inverse")
TABLE_GROUPS = [
    (chain(6), Z7),
    (ngon(5), Matrices2x2Mod(2)),
    (random_pruned_order(303, 7, 0.6), Integers()),
    (chain(9), Z7),
    (ngon(6), Matrices2x2Mod(3)),
    (chain(9), Matrices2x2Mod(2)),
]


@pytest.mark.parametrize(
    "case, counts", [pytest.param(case, counts, id=name) for name, case, counts in CALL_TABLE]
)
def test_each_operation_makes_exactly_its_kernel_calls(monkeypatch, case, counts):
    calls = dict.fromkeys(COUNTED, 0)
    for name in ("_product", "_divide"):
        kernel = getattr(mclain.elements, name)
        monkeypatch.setattr(mclain.elements, name, counting(calls, name, kernel))
    # where coset_representative looks the division up
    kernel = mclain.factorization._divide
    monkeypatch.setattr(
        mclain.factorization, "_divide", counting(calls, "factorization._divide", kernel)
    )
    monkeypatch.setattr(GroupElement, "inverse", counting(calls, "inverse", GroupElement.inverse))
    rng = random.Random(805)
    for delta, ring in TABLE_GROUPS:
        group = McLainGroup(delta, ring)
        for g in (dense_element(group, rng), random_element(group, rng)):
            operation, expected = case(group, g, rng)
            calls.update(dict.fromkeys(COUNTED, 0))
            result = operation()
            assert calls == {**dict.fromkeys(COUNTED, 0), **counts}, str(ring)
            assert result == expected, str(ring)


# ---------------------------------------------------------------------------
# the seeded sweep against the oracle


def local_maps(group: McLainGroup, rng, width: int) -> list[tuple[dict, dict]]:
    """Two four-term elements, each on pairs among ``width`` nodes in a row
    of the sorted node numbers, wrapping round, so that their terms compose
    while every touched row of a wide relation stays nearly empty; each as
    a row map and as a label map."""
    nodes = sorted(group.relation.nodes, key=int)
    maps = []
    for _ in range(2):
        start = rng.randrange(len(nodes))
        window = {nodes[(start + k) % len(nodes)] for k in range(width)}
        pairs = sorted(p for p in group.relation.pairs if window.issuperset(p))
        items = [(p, group.ring.sample(rng)) for p in rng.sample(pairs, 4)]
        maps.append((group.element(dict(items))._coeffs, dict(scan_payloads(group.ring, items))))
    return maps


def small_relations():
    """A chain, n-gons, pruned orders and rejection-sampled relations of at
    most 12 nodes; all but the chain have composites outside the relation."""
    out = [chain(9), *map(ngon, (7, 8, 9, 12))]
    out += [random_pruned_order(seed, 10, 0.5) for seed in range(4)]
    out += [random_pruned_order(seed, 9, 0.3) for seed in range(10)]
    for nodes in (7, 8):
        out += [random_relation(900 + seed, nodes, 0.3)[0] for seed in range(3)]
    return out


@pytest.mark.parametrize(
    "ring", [Integers(), IntegersMod(4), Matrices2x2Mod(2), Matrices2x2Mod(3)], ids=str
)
def test_sparse_rows_and_composites_outside_the_relation_match(ring):
    rng = random.Random(490)
    wide = [(delta, lambda group: local_maps(group, rng, 5)) for delta in (ngon(490), chain(60))]
    small = [
        (delta, lambda group: [both_maps(group, rng) for _ in range(2)])
        for delta in small_relations()
    ]
    for delta, draw in wide + small:
        group = McLainGroup(delta, ring)
        for _ in range(4):
            (x, lx), (y, ly) = draw(group)
            g, h = GroupElement(group, x), GroupElement(group, y)
            assert recode(delta, (g * h)._coeffs) == scan_product(group, lx, ly)
            assert recode(delta, g.inverse()._coeffs) == scan_inverse(group, lx)
            assert recode(delta, g.commutator(h)._coeffs) == scan_commutator(group, lx, ly)
            assert recode(delta, _divide(group, x, y)) == scan_divide(group, lx, ly)
            assert _divide(group, x, x) == {}


# ---------------------------------------------------------------------------
# cancellations


@pytest.mark.parametrize(
    "ring", [IntegersMod(2), IntegersMod(4), Matrices2x2Mod(2)], ids=str
)
def test_fixed_cancellations_on_chain3(ring):
    group = McLainGroup(chain(3), ring)

    def x(i, j, c):
        return group.generator(str(i), str(j), c)

    # Only the x + y base reaches (1,3): the product has no term to add there.
    assert (x(1, 3, 1) * x(1, 3, -1))._coeffs == {}
    # The cancellation happens inside the product: e(1,2) e(2,3) meets -e(1,3).
    product = x(1, 2, 1) * (x(2, 3, 1) * x(1, 3, -1))
    assert recode(group.relation, product._coeffs) == {
        ("1", "2"): ring.one.payload,
        ("2", "3"): ring.one.payload,
    }
    order = (("1", "2"), ("2", "3"), ("1", "3"))
    form = OrderedForm(group, order, dict(zip(order, map(ring.from_int, (1, 1, -1)))))
    assert ("1", "3") not in recode(group.relation, form.product()._coeffs)
    assert form.product() == product
    word = gen_word(zip(order, map(ring.from_int, (1, 1, -1))))
    assert group.eval_word(word)._coeffs == product._coeffs
    g = x(1, 2, 1) * x(2, 3, 1) * x(1, 3, 1)
    assert (g * g.inverse())._coeffs == {}
    assert (g.inverse() * g)._coeffs == {}
