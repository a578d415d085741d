"""Shared fixtures for the test suite: a zoo of small valid relations,
deterministic random element sampling, and the translation between the
row maps of node numbers that hold coefficients and label pairs."""

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
from oracles import scan_payloads


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
    """x runs with inv(...) and comm(...) tokens between them, then a
    nonempty run, the inverse of a word holding a comm(...), and a last
    run."""
    tokens = []
    for _ in range(rng.randint(1, 3)):
        tokens.extend(gen_word(random_factors(group, rng, rng.randint(0, 4))))
        inner = gen_word(random_factors(group, rng, 2))
        if rng.random() < 0.5:
            tokens.append(Inv(inner))
        else:
            tokens.append(Comm(inner, gen_word(random_factors(group, rng, 2))))
    tokens.extend(gen_word(random_factors(group, rng, rng.randint(1, 3))))
    y, a, b, z = (gen_word(random_factors(group, rng, 2)) for _ in range(4))
    tokens.append(Inv(GeneratorWord((*y, Comm(a, b), *z))))
    tokens.extend(gen_word(random_factors(group, rng, rng.randint(0, 3))))
    return GeneratorWord(tuple(tokens))


def counting(calls: dict, name: str, call):
    """call, counting each use under name in calls."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return call(*args, **kwargs)

    return wrapper


def both_maps(group: McLainGroup, rng: random.Random) -> tuple[dict, dict]:
    """One element, on a random share of the pairs with some values zero, as
    a row map and as a label map, each built by its own side's payload
    filter (``McLainGroup.element``, ``oracles.scan_payloads``); the two must
    name the same coefficients."""
    pairs = sorted(group.relation.pairs)
    items = [(p, some_zero(group.ring, rng)) for p in pairs if rng.random() < 0.6]
    coded = group.element(dict(items))._coeffs
    labelled = dict(scan_payloads(group.ring, items))
    assert recode(group.relation, coded) == labelled
    return coded, labelled


def recode(relation: Relation, coeffs: dict) -> dict:
    """A coefficient map over the relation with its keys translated, values
    kept: a row map {number(i): {number(j): c}} to the label map
    {(i, j): c}, and a label map to its row map.

    The N nodes of the relation are numbered in sorted label order. The
    numbers are worked out here from the node set, without the library's
    index, so a test that translates with it also checks the library's
    numbering. An empty row translates to nothing: the normal form of row
    maps is checked on its own (``tests/test_code_kernels.py``).
    """
    labels = sorted(relation.nodes)
    number = {label: x for x, label in enumerate(labels)}
    out: dict = {}
    for key, value in coeffs.items():
        if isinstance(key, int):
            out.update(((labels[key], labels[l]), c) for l, c in value.items())
        else:
            out.setdefault(number[key[0]], {})[number[key[1]]] = value
    return out
