"""The hypothesis strategies, fixtures and settings the property tests share.

Every property test takes its settings from ``profile``, which seeds the
draws with a fixed seed: the examples a test runs then depend on its
strategies and its example count only, so editing a test body does not
swap them. Labels are drawn so that sorted order is not numeric order
("10" < "9"), node sets carry isolated nodes, and subsets may come with a
node set of their own. Import this module after
``pytest.importorskip("hypothesis")``.
"""

from __future__ import annotations

from hypothesis import Phase, seed, settings, strategies as st

from helpers import relation_zoo
from mclain import (
    AxiomReport,
    Comm,
    GeneratorWord,
    Integers,
    Inv,
    Matrices2x2Mod,
    Relation,
    from_pairs,
    random_pruned_order,
)
from oracles import naive_normal_closure, naive_transitive_closure


def profile(max_examples: int):
    """The settings of a property test that runs this many examples, with
    no deadline, no example database, seeded draws and no shrinking: a
    failure reports the first failing example as drawn. Shrinking runs only
    after a failure, so every test draws the same examples and reaches the
    same verdict without it, and a failing run ends sooner."""

    def apply(test):
        configured = settings(
            max_examples=max_examples,
            deadline=None,
            database=None,
            phases=(Phase.explicit, Phase.generate),
        )
        return seed(0)(configured(test))

    return apply


LABELS = ("1", "2", "3", "9", "10", "11", "a", "b")
LOOP = from_pairs([("10", "10"), ("10", "9")])
TWO_CYCLE = from_pairs([("9", "10"), ("10", "9"), ("10", "11")])
EXCHANGE_BREAKER = from_pairs(
    [("9", "10"), ("10", "11"), ("11", "2"), ("9", "2"), ("9", "11")]
)
# (9,11) absent and (10,2) present: the scan's other branch
ABSENT_BREAKER = from_pairs(
    [("9", "10"), ("10", "11"), ("11", "2"), ("9", "2"), ("10", "2")]
)

BIG = st.integers(-(10**40), 10**40) | st.integers(-5, 5)


def payloads(ring, reduced: bool = True):
    """Raw payloads of Z, of Z/n or of M2(Z/n), or of a ring with an int
    modulus ``n`` and int payloads. With ``reduced=False`` the ints and the
    matrix entries are drawn from outside [0, n) as well, as an unreduced
    sum holds them. Over Z both are any ints, negative and large ones
    included."""
    if isinstance(ring, Integers):
        return BIG
    n = ring.n
    entry = st.integers(0, n - 1) if reduced else st.integers(-3 * n, 3 * n) | BIG
    return st.tuples(entry, entry, entry, entry) if isinstance(ring, Matrices2x2Mod) else entry


labels = st.sampled_from(LABELS)
extra_nodes = st.sets(labels, max_size=3)
digraphs = st.builds(
    from_pairs, st.sets(st.tuples(labels, labels), max_size=14), extra_nodes
)


@st.composite
def pruned_orders(draw):
    """A strict order on three, six, seven or eight shuffled labels, whose
    steps include the first two of the ranking and at least as many more as
    there are labels, less the normal closure of one of its composites (i,k)
    when it has one, and of at most one more pair: a valid relation, mostly
    with more than six pairs and many composable ones, whose numbering is
    not the order's ranking and which keeps the (i,j), (j,k) that compose
    to a missing (i,k). The orders on three labels keep relations of three
    pairs or fewer in the draw."""
    ranked = draw(st.permutations(LABELS))[: draw(st.sampled_from([3, 6, 7, 8]))]
    forward = [(a, b) for n, a in enumerate(ranked) for b in ranked[n + 1 :]]
    more = draw(st.sets(st.sampled_from(forward), min_size=len(ranked)))
    steps = {*zip(ranked, ranked[1:3]), *more}
    order = frozenset(naive_transitive_closure(steps))
    composites = sorted({(i, l) for i, j in order for k, l in order if j == k})
    seeds = draw(st.sets(st.sampled_from(sorted(order)), max_size=1))
    if composites:
        seeds.add(draw(st.sampled_from(composites)))
    pairs = order - naive_normal_closure(frozenset(seeds), order)
    return from_pairs(pairs, set(ranked) | draw(extra_nodes))


relabelled = st.builds(
    lambda delta, shift: from_pairs(
        [(str(int(i) + shift), str(int(j) + shift)) for i, j in delta.pairs],
        [str(int(n) + shift) for n in delta.nodes],
    ),
    st.builds(
        random_pruned_order, st.integers(0, 10**6), st.integers(7, 8), st.floats(0.4, 1)
    ),
    st.sampled_from([0, 5]),
)
valid_relations = st.one_of(pruned_orders(), relabelled)
relations = st.one_of(digraphs, valid_relations)
# The zoo's n-gons, 2-cycle and random relations are valid but not orders.
# It is built at the first draw, so that a fault it trips fails the tests
# that draw from it rather than the import of every property test module.
zoo_or_valid = st.one_of(
    st.deferred(lambda: st.sampled_from([delta for _, delta in relation_zoo()])),
    valid_relations,
)


@st.composite
def subsets(draw, delta: Relation):
    """A subset of delta, over delta's node set or over the nodes its pairs
    touch, with or without one more node of delta."""
    if not delta.pairs:
        return delta
    pairs = frozenset(draw(st.sets(st.sampled_from(sorted(delta.pairs)))))
    if draw(st.booleans()):
        return delta.subset(pairs)
    nodes = {n for pair in pairs for n in pair}
    nodes |= draw(st.sets(st.sampled_from(sorted(delta.nodes)), max_size=1))
    return Relation(frozenset(nodes), pairs)


with_subset = relations.flatmap(lambda delta: st.tuples(st.just(delta), subsets(delta)))


def words(gens):
    """Words of drawn Gen tokens and of inv(...) and comm(...) tokens nested
    around drawn sub-words, empty ones included."""

    def products(tokens):
        return st.lists(tokens, max_size=4).map(lambda t: GeneratorWord(tuple(t)))

    def wrapped(inner):
        return st.builds(Inv, products(inner)) | st.builds(
            Comm, products(inner), products(inner)
        )

    return products(st.recursive(gens, wrapped, max_leaves=10))


def fresh(relation: Relation) -> Relation:
    """An equal relation whose index and axiom report are not built yet."""
    return Relation(relation.nodes, relation.pairs)


def forced_valid(relation: Relation) -> Relation:
    """A fresh copy that passes validation whatever its axioms say."""
    out = fresh(relation)
    object.__setattr__(out, "axiom_report", AxiomReport(True, ()))
    return out


def outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)
