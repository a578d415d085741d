"""Shared fixtures for the test suite: a zoo of small valid relations,
deterministic random element sampling, and the translation between the
pair codes that key coefficient maps and label pairs."""

from __future__ import annotations

import random

from mclain import (
    Comm,
    Gen,
    GeneratorWord,
    Integers,
    IntegersMod,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    Relation,
    chain,
    from_pairs,
    ngon,
    random_pruned_order,
    random_relation,
)


def ring_instances():
    return [Integers(), IntegersMod(5), Matrices2x2Mod(2)]


def relation_zoo():
    """Small valid relations of assorted shapes, at most 8 nodes each."""
    out = [
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        ("chain5", chain(5)),
        ("ngon4", ngon(4)),
        ("ngon5", ngon(5)),
        ("ngon6", ngon(6)),
        ("single", from_pairs([("1", "2")])),
        ("path", from_pairs([("1", "2"), ("2", "3")])),
        ("cycle2", from_pairs([("1", "2"), ("2", "1")])),
        ("fan", from_pairs([("1", "2"), ("1", "3"), ("1", "4")])),
        ("vee", from_pairs([("1", "3"), ("2", "3")])),
        ("twochains", from_pairs([("1", "2"), ("3", "4")])),
        (
            "diamond",
            from_pairs([("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("1", "4")]),
        ),
    ]
    for seed in range(6):
        rel, _ = random_relation(seed=100 + seed, node_count=5, density=0.25)
        out.append((f"rand{seed}", rel))
    for seed in range(5):
        rel = random_pruned_order(seed=200 + seed, node_count=6, density=0.4)
        out.append((f"order{seed}", rel))
    return out


def acceptance_relations():
    """At least 20 valid relations with at most 10 pairs each."""
    picked = [(name, rel) for name, rel in relation_zoo() if len(rel.pairs) <= 10]
    assert len(picked) >= 20, f"only {len(picked)} small relations available"
    return picked


def random_element(group: McLainGroup, rng: random.Random, max_terms: int = 6):
    pairs = sorted(group.relation.pairs)
    rng.shuffle(pairs)
    take = rng.randint(0, min(len(pairs), max_terms))
    return group.element({p: group.ring.sample(rng) for p in pairs[:take]})


def dense_element(group: McLainGroup, rng: random.Random):
    """An element with a sampled value, zero allowed, at every pair."""
    pairs = sorted(group.relation.pairs)
    return group.element({pair: group.ring.sample(rng) for pair in pairs})


def sparse_element(group: McLainGroup, rng: random.Random):
    """An element on one to three pairs, each with a nonzero value."""
    pairs = sorted(group.relation.pairs)
    chosen = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
    ring = group.ring
    values = {}
    for pair in chosen:
        value = ring.sample(rng)
        while value == ring.zero:
            value = ring.sample(rng)
        values[pair] = value
    return group.element(values)


def some_zero(ring, rng):
    """A sampled value, or the zero of the ring about a third of the time."""
    return ring.zero if rng.random() < 0.3 else ring.sample(rng)


def random_factors(group: McLainGroup, rng: random.Random, length: int):
    """Generator factors at random pairs, repeats allowed, some values zero."""
    pairs = sorted(group.relation.pairs)
    return [(rng.choice(pairs), some_zero(group.ring, rng)) for _ in range(length)]


def gen_word(factors):
    """The word of Gen tokens for these (pair, value) factors, in order."""
    return GeneratorWord(tuple(Gen(*pair, c) for pair, c in factors))


def mixed_word(group, rng):
    """x runs with inv(...) and comm(...) tokens between them."""
    tokens = []
    for _ in range(rng.randint(1, 3)):
        tokens.extend(gen_word(random_factors(group, rng, rng.randint(0, 4))))
        inner = gen_word(random_factors(group, rng, 2))
        if rng.random() < 0.5:
            tokens.append(Inv(inner))
        else:
            tokens.append(Comm(inner, gen_word(random_factors(group, rng, 2))))
    tokens.extend(gen_word(random_factors(group, rng, rng.randint(0, 3))))
    return GeneratorWord(tuple(tokens))


def recode(relation: Relation, coeffs: dict) -> dict:
    """A coefficient map over the relation with its keys translated, values
    kept: an int pair code to its label pair, and a label pair to its code.

    The code of (i, j) is number(i) * N + number(j), where the N nodes of
    the relation are numbered in sorted label order. It is worked out here
    from the node set, without the library's index, so a test that
    translates with it also checks the library's encoding.
    """
    labels = sorted(relation.nodes)
    number = {label: x for x, label in enumerate(labels)}
    n = len(labels)

    def translate(key):
        if isinstance(key, int):
            return labels[key // n], labels[key % n]
        return number[key[0]] * n + number[key[1]]

    return {translate(key): value for key, value in coeffs.items()}
