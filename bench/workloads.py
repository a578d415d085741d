"""The benchmark's four workloads: seeded inputs, one task, and its checks.

Every workload builds a pool of inputs from the seed. A run cycles through
the pool in a fixed order, one task at a time, so each cycle repeats the
same computations. A workload provides

* ``setup(seed)``: the pool, built only from the seed;
* ``run(item, span)``: one task, with a ``span(name)`` context manager
  around each call into a public function of a ``mclain`` module;
* ``lines(item, result)``: the printed outputs of the task (normal forms,
  series lines, factorization lines, CLI stdout), which the digest covers;
* ``verify(item, result)``: the task's self-checks, returning a message
  on failure and ``None`` when every check holds;
* ``layer_metrics(pool, results)``: per-layer values the traced run
  computes from the inputs rather than from spans.

``results`` holds the first cycle's result for each pool item.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import operator
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

from mclain import (
    Comm,
    Gen,
    GeneratorWord,
    GroupElement,
    Integers,
    IntegersMod,
    Inv,
    Matrices2x2Mod,
    McLainGroup,
    Relation,
    chain,
    check_axioms,
    closure,
    coset_representative,
    difference,
    format_chain_lines,
    format_relation,
    format_word,
    from_pairs,
    gamma_series,
    is_closed,
    is_normal,
    lower_central_series,
    minimal_closed_support,
    ngon,
    nilpotency_class,
    normal_closure,
    ordered_factorization,
    parse_element_expression,
    parse_normal_form,
    parse_order_text,
    parse_relation_text,
    parse_ring_spec,
    quotient_project,
    random_pruned_order,
    upper_central_series,
    word_factorization,
)
from mclain import cli

Z = Integers()


# ---------------------------------------------------------------------------
# input generators


def random_order(rng: random.Random, n: int, target_pairs: int) -> Relation:
    """A random strict partial order on n nodes with about target_pairs pairs.

    Edges between randomly ranked nodes are added one at a time, each
    followed by transitive closure, until the order has target_pairs
    pairs. Stopping at a pair count rather than an edge density keeps
    the size, and so the cost, nearly the same for every seed.
    """
    ranked = [str(i) for i in range(1, n + 1)]
    rng.shuffle(ranked)
    below = [{a} for a in range(n)]  # nodes at or before a in the order
    above = [{a} for a in range(n)]
    count = 0
    candidates = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(candidates)
    for a, b in candidates:
        if count >= target_pairs:
            break
        if b in above[a]:
            continue
        for x in below[a]:
            for y in above[b]:
                if y not in above[x]:
                    above[x].add(y)
                    below[y].add(x)
                    count += 1
    pairs = [(ranked[a], ranked[b]) for a in range(n) for b in above[a] if a != b]
    return from_pairs(sorted(pairs), ranked)


def nonzero(ring, rng: random.Random):
    while True:
        value = ring.sample(rng)
        if value:
            return value


def dense_coeffs(relation: Relation, ring, rng: random.Random) -> dict:
    """A nonzero coefficient on every pair of the relation."""
    return {pair: nonzero(ring, rng) for pair in sorted(relation.pairs)}


def dense_word(relation: Relation, ring, rng: random.Random) -> GeneratorWord:
    """One generator per pair, in a seeded order, each with a nonzero value."""
    pairs = sorted(relation.pairs)
    rng.shuffle(pairs)
    return GeneratorWord(tuple(Gen(i, j, nonzero(ring, rng)) for i, j in pairs))


def seeded_subset(relation: Relation, rng: random.Random, share: float) -> Relation:
    """A seeded sample of the relation's pairs, never empty."""
    pairs = sorted(relation.pairs)
    picked = [p for p in pairs if rng.random() < share] or [rng.choice(pairs)]
    return relation.subset(picked)


def normal_subset(relation: Relation, rng: random.Random) -> Relation:
    """The normal closure of one seeded pair, holding 20-30% of the relation.

    Quotient and coset costs fall as the normal subset grows, so its size
    is held in a band rather than left to the seed.
    """
    pairs = sorted(relation.pairs)
    for _ in range(100):
        gamma = normal_closure(relation.subset([rng.choice(pairs)]), relation)
        if 0.2 <= len(gamma) / len(relation) <= 0.3:
            break
    return gamma


def paths3(delta: Relation) -> int:
    """Length-3 paths (i,j),(j,k),(k,l): the walks the axiom scan makes."""
    after = {}
    for i, j in delta.pairs:
        after.setdefault(i, []).append(j)
    return sum(
        len(after.get(k, ()))
        for i, j in delta.pairs
        for k in after.get(j, ())
    )


def chain_product(g, h, m: int) -> dict:
    """Coefficients of g*h over chain(m), as dense unitriangular matrices.

    Entry (i,l) of the product is the sum over i <= j <= l of
    g[i][j] * h[j][l], with ones on the diagonal. It shares no code with
    the library's sparse multiplication.
    """
    ring = g.group.ring

    def entry(x, i, j):
        return ring.one if i == j else x.coefficient(str(i), str(j))

    out = {}
    for i in range(1, m + 1):
        for l in range(i + 1, m + 1):
            total = ring.zero
            for j in range(i, l + 1):
                total = total + entry(g, i, j) * entry(h, j, l)
            out[(str(i), str(l))] = total
    return out


# ---------------------------------------------------------------------------
# arith


@dataclass
class ArithItem:
    g: GroupElement
    h: GroupElement
    chain_size: int  # 0 when the relation is not a chain


class Arith:
    """g*h, then g.inverse(), then g.commutator(h), on dense elements.

    Nearly all time goes to ring arithmetic and elements. Relations are
    built and validated only in setup.
    """

    rings = (IntegersMod(7), Z, Matrices2x2Mod(3))

    def setup(self, seed: int) -> list[ArithItem]:
        rng = random.Random(seed)
        # (relation, chain size, rings, element pairs per ring). The median
        # falls among the chain(20) tasks and the tail among the three
        # chain(30) ones, whose costs hardly depend on the seed. chain(30)
        # and chain(40), the costliest tasks, run only in Z/7. Strict orders
        # are transitive, so every pair g*h composes lands in the relation;
        # the pruned order, a strict order less a normal subset, is not, so
        # some composites fall outside it.
        order = random_order(rng, 30, 170)
        pruned = difference(order, normal_subset(order, rng))
        relations = [
            (random_order(rng, 24, 120), 0, self.rings, 2),
            (pruned, 0, self.rings, 1),
            (chain(20), 20, self.rings, 4),
            (chain(30), 30, self.rings[:1], 3),
            (chain(40), 40, self.rings[:1], 1),
        ]
        items = []
        for relation, size, rings, count in relations:
            for ring in rings:
                group = McLainGroup(relation, ring)
                for _ in range(count):
                    g = group.element(dense_coeffs(relation, ring, rng))
                    h = group.element(dense_coeffs(relation, ring, rng))
                    items.append(ArithItem(g, h, size))
        return items

    def run(self, item: ArithItem, span):
        g, h = item.g, item.h
        with span("elements.mul"):
            gh = g * h
        with span("elements.inverse"):
            gi = g.inverse()
        with span("elements.commutator"):
            c = g.commutator(h)
        return gh, gi, c

    def lines(self, item, result):
        return [str(x) for x in result]

    def verify(self, item, result):
        g, h = item.g, item.h
        gh, gi, c = result
        if not (gi * g).is_identity() or not (g * gi).is_identity():
            return "g.inverse() is not a two-sided inverse"
        if c * h * g != gh:
            return "g.commutator(h) * h * g != g * h"
        if item.chain_size:
            expected = chain_product(g, h, item.chain_size)
            if any(gh.coefficient(*pair) != v for pair, v in expected.items()):
                return "g * h disagrees with the dense matrix product"
        return None

    def layer_metrics(self, pool, results):
        """Splice pairs that g*h visits, and the share landing in the relation."""
        visited = hits = 0
        for item in pool:
            starts = {}
            for i, j in item.h.coefficients():
                starts.setdefault(i, []).append(j)
            pairs = item.g.group.relation.pairs
            for i, j in item.g.coefficients():
                for l in starts.get(j, ()):
                    visited += 1
                    hits += (i, l) in pairs
        out = {
            "elements.mul.splice_pairs": visited,
            "elements.mul.splice_hit_frac": hits / visited,
        }
        out.update(ring_kernel(random.Random(0)))
        return out


RING_KERNEL = {"z": Z, "z7": IntegersMod(7), "m2z3": Matrices2x2Mod(3)}


def ring_kernel(rng: random.Random, size: int = 4096, repeats: int = 7) -> dict:
    """ns per RingValue * and + on pre-generated nonzero operands.

    Each loop is short, so the best of the repeats filters out moments
    when the shared processor runs slow.
    """
    out = {}
    for key, ring in RING_KERNEL.items():
        pairs = [(nonzero(ring, rng), nonzero(ring, rng)) for _ in range(size)]
        for op, name in ((operator.mul, "mul"), (operator.add, "add")):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for a, b in pairs:
                    op(a, b)
                times.append(time.perf_counter() - start)
            out[f"rings.{name}_ns.{key}"] = min(times) / size * 1e9
    return out


# ---------------------------------------------------------------------------
# structure


@dataclass
class StructureItem:
    pairs: tuple  # stored pairs, or () when random_pruned_order makes the relation
    pruned: tuple  # arguments of random_pruned_order, or ()
    chain_size: int
    pick_seed: int


class Structure:
    """Relation calculus and central series, with no ring arithmetic.

    Each task builds a fresh Relation, so its cached indexes and axiom
    report start cold, as they do on every CLI call.
    """

    def setup(self, seed: int) -> list[StructureItem]:
        rng = random.Random(seed)
        # The median falls among the ngon tasks and the tail among the three
        # chain(40) ones, whose costs hardly depend on the seed.
        specs = [(tuple(sorted(chain(n).pairs)), (), n) for n in (30, 40, 40, 40, 50)]
        specs += [(tuple(sorted(ngon(n).pairs)), (), 0) for n in range(380, 491, 10)]
        specs += [
            (tuple(sorted(random_order(rng, n, 160).pairs)), (), 0) for n in range(40, 81, 6)
        ]
        specs += [((), (rng.randrange(10**9), 36, 0.12), 0) for _ in range(3)]
        return [StructureItem(*spec, rng.randrange(10**9)) for spec in specs]

    def run(self, item: StructureItem, span):
        if item.pruned:
            with span("relations.random_pruned_order"):
                delta = random_pruned_order(*item.pruned)
        else:
            with span("relations.from_pairs"):
                delta = from_pairs(item.pairs)
        pick = random.Random(item.pick_seed)
        sub = seeded_subset(delta, pick, 0.05)
        seed_pairs = seeded_subset(delta, pick, 0.02)
        with span("relations.check_axioms"):
            report = check_axioms(delta)
        with span("relations.closure"):
            closed = closure(sub, delta)
        with span("relations.gamma_series"):
            brackets = gamma_series(closed, delta)
        with span("relations.normal_closure"):
            normal = normal_closure(seed_pairs, delta)
        with span("relations.difference"):
            rest = difference(delta, normal)
        with span("series.lower_central_series"):
            lower, reports = lower_central_series(delta, Z)
        with span("series.upper_central_series"):
            upper = upper_central_series(delta)
        return dict(
            delta=delta, report=report, sub=sub, closed=closed, brackets=brackets,
            seed_pairs=seed_pairs, normal=normal, rest=rest, lower=lower,
            reports=reports, upper=upper,
        )

    def lines(self, item, r):
        return (
            [f"valid {r['report'].valid}", f"closure {sorted(r['closed'].pairs)}"]
            + format_chain_lines(r["brackets"])
            + [f"normal closure {sorted(r['normal'].pairs)}"]
            + format_chain_lines(r["lower"], r["reports"])
            + format_chain_lines(r["upper"])
        )

    def verify(self, item, r):
        delta = r["delta"]
        if not r["report"].valid:
            return "a valid input failed check_axioms"
        if not (r["sub"].pairs <= r["closed"].pairs and is_closed(r["closed"], delta)):
            return "closure is not a closed superset"
        if r["brackets"].terms[0] != r["closed"] or r["brackets"].terms[-1].pairs:
            return "gamma series does not run from the subset down to empty"
        normal = r["normal"]
        if not (r["seed_pairs"].pairs <= normal.pairs and is_normal(normal, delta)):
            return "normal_closure is not a normal superset"
        if r["rest"].pairs != delta.pairs - normal.pairs:
            return "difference removed the wrong pairs"
        if not all(is_normal(term, delta) for term in r["lower"].terms):
            return "a lower central term is not normal"
        if sum(report.rank for report in r["reports"]) != len(delta):
            return "lower central ranks do not sum to the relation size"
        if item.chain_size and nilpotency_class(r["lower"]) != item.chain_size - 1:
            return f"chain({item.chain_size}) lower series has the wrong length"
        terms = r["upper"].terms
        if terms[0].pairs or terms[-1].pairs != delta.pairs:
            return "upper central series does not run from empty to the relation"
        return None

    def layer_metrics(self, pool, results):
        return {
            "relations.check_axioms.paths3": sum(paths3(r["delta"]) for r in results)
        }


# ---------------------------------------------------------------------------
# factor


@dataclass
class FactorItem:
    kind: str  # "word", "sorted", "shuffled" or "coset"
    group: McLainGroup
    coeffs: dict
    word: GeneratorWord | None  # for "word"
    rank: dict  # pair -> position key of the shuffled order
    gamma: Relation | None  # for "coset"


class Factor:
    """Factorizations and quotients of dense elements of small relations.

    Many sparse generator-times-element products, inverses of single
    generators, and a fresh quotient group per quotient_project call.
    The ordered factorizations set the tail.
    """

    rings = (IntegersMod(5), Z, Matrices2x2Mod(2))

    def setup(self, seed: int) -> list[FactorItem]:
        rng = random.Random(seed)
        z5, z, m2 = self.rings
        chains = {n: chain(n) for n in (12, 14, 16, 20)}
        # The median falls among word and coset tasks on chains and the tail
        # among the four ordered factorizations on chain(16), whose costs
        # hardly depend on the seed.
        plan = [(chains[n], ring, "word") for n in (12, 16, 20) for ring in self.rings]
        plan += [(chains[n], ring, "coset") for n in (12, 14, 16) for ring in self.rings]
        plan += [
            (chains[n], ring, kind) for n, ring, kind in (
                (12, z5, "sorted"), (12, z, "shuffled"), (12, m2, "sorted"),
                (14, z5, "shuffled"), (14, z, "sorted"), (14, m2, "shuffled"),
                (16, z5, "sorted"), (16, z5, "shuffled"), (16, z, "shuffled"),
                (16, m2, "sorted"),
            )
        ]
        for n, target in ((14, 45), (18, 70)):
            order = random_order(rng, n, target)
            plan += [(order, z5, "word"), (order, z, "sorted"), (order, m2, "coset")]
        items = []
        for relation, ring, kind in plan:
            group = McLainGroup(relation, ring)
            items.append(FactorItem(
                kind, group,
                dense_coeffs(relation, ring, rng),
                dense_word(relation, ring, rng) if kind == "word" else None,
                {pair: rng.random() for pair in sorted(relation.pairs)},
                normal_subset(relation, rng) if kind == "coset" else None,
            ))
        return items

    def run(self, item: FactorItem, span):
        if item.kind == "word":
            with span("elements.eval_word"):
                g = item.group.eval_word(item.word)
            with span("factorization.word_factorization"):
                return g, word_factorization(g)
        with span("elements.element"):
            g = item.group.element(item.coeffs)
        if item.kind == "coset":
            with span("series.quotient_project"):
                projected = quotient_project(g, item.gamma)
            with span("series.coset_representative"):
                representative = coset_representative(g, item.gamma)
            return g, projected, representative
        with span("factorization.minimal_closed_support"):
            support = minimal_closed_support(g)
        if item.kind == "sorted":
            order = tuple(sorted(support.pairs))
        else:
            order = tuple(sorted(support.pairs, key=item.rank.__getitem__))
        with span("factorization.ordered_factorization"):
            return g, ordered_factorization(g, order)

    def lines(self, item, result):
        if item.kind == "word":
            return [format_word(result[1])]
        if item.kind == "coset":
            return [str(result[1]), str(result[2])]
        return result[1].lines()

    def verify(self, item, result):
        g = result[0]
        if item.kind == "word":
            if item.group.eval_word(result[1]) != g:
                return "eval_word(word_factorization(g)) != g"
        elif item.kind == "coset":
            projected, representative = result[1:]
            leftover = representative.inverse() * g
            if not leftover.support().pairs <= item.gamma.pairs:
                return "r.inverse() * g is not supported inside gamma"
            if quotient_project(representative, item.gamma) != projected:
                return "quotient_project(r) != quotient_project(g)"
        elif result[1].product() != g:
            return "form.product() != g"
        return None

    def layer_metrics(self, pool, results):
        return {}


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliItem:
    command: str
    argv: list
    expect: Callable[[], str]  # the stdout, computed through the library
    relation_texts: tuple  # relation and gamma files, for the parsing replay
    group: McLainGroup | None = None
    expression: str = ""
    order_text: str = ""


class CliWorkload:
    """The mclain command, run one invocation at a time as a subprocess.

    Small inputs, where interpreter start and import dominate, mixed with
    medium ones where the program's own work does. The only workload
    that runs parsing and the command line layer.
    """

    def __init__(self, root: Path, work: Path):
        self.env = library_env(root / "src")
        self.work = work

    def setup(self, seed: int) -> list[CliItem]:
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        files = itertools.count()

        def write(text: str) -> str:
            path = self.work / f"input{next(files)}.txt"
            path.write_text(text, encoding="utf-8")
            return str(path)

        def scenario(command, relation, spec, word, extra, expect, texts=(), order_text=""):
            """An item for eval, factor or quotient on the element word."""
            text = format_relation(relation)
            group = McLainGroup(relation, parse_ring_spec(spec))
            expression = format_word(word)
            argv = [command, "--relation", write(text), "--ring", spec, *extra, expression]
            return CliItem(command, argv, lambda: expect(group, group.eval_word(word)),
                           (text, *texts), group, expression, order_text)

        items = []
        text = format_relation(random_order(rng, 80, 600))
        items.append(CliItem("check", ["check", write(text)], lambda: "valid\n", (text,)))
        for relation, flag, spec in (
            (chain(35), "--lower", "Z"),
            (random_order(rng, 70, 900), "--lower", "Z/7"),
            (chain(34), "--upper", "Z"),
        ):
            text = format_relation(relation)

            def expect(relation=relation, flag=flag, spec=spec):
                if flag == "--upper":
                    return text_of(format_chain_lines(upper_central_series(relation)))
                series = lower_central_series(relation, parse_ring_spec(spec))
                return text_of(format_chain_lines(*series))

            items.append(CliItem(
                "series", ["series", write(text), flag, "--ring", spec], expect, (text,)))

        def normal_form(group, element):
            return f"{element}\n"

        for relation, spec in ((random_order(rng, 30, 120), "Z/7"), (chain(25), "M2(Z/3)")):
            ring = parse_ring_spec(spec)
            items.append(scenario(
                "eval", relation, spec, mixed_word(relation, ring, rng), (), normal_form))

        def flat_word(group, element):
            return format_word(word_factorization(element)) + "\n"

        relation = chain(16)
        items.append(scenario(
            "factor", relation, "Z/5", dense_word(relation, IntegersMod(5), rng), (),
            flat_word))
        for n, spec in ((12, "Z/5"), (13, "Z"), (12, "M2(Z/2)")):
            relation = chain(n)
            order = sorted(relation.pairs)
            rng.shuffle(order)
            order_text = "".join(f"{i} {j}\n" for i, j in order)

            def ordered(group, element, order=tuple(order)):
                return text_of(ordered_factorization(element, order).lines())

            word = dense_word(relation, parse_ring_spec(spec), rng)
            items.append(scenario(
                "factor", relation, spec, word, ["--order", write(order_text)], ordered,
                order_text=order_text))
        for n, spec in ((13, "Z/5"), (13, "Z")):
            relation = chain(n)
            gamma = normal_subset(relation, rng)
            gamma_text = format_relation(gamma)

            def quotient(group, element, gamma=gamma):
                return (
                    f"projection: {quotient_project(element, gamma)}\n"
                    f"representative: {coset_representative(element, gamma)}\n"
                )

            word = dense_word(relation, parse_ring_spec(spec), rng)
            items.append(scenario(
                "quotient", relation, spec, word, ["--gamma", write(gamma_text)], quotient,
                texts=(gamma_text,)))
        return items

    def run(self, item: CliItem, span):
        proc = subprocess.run(
            [sys.executable, "-m", "mclain", *item.argv],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def lines(self, item, result):
        return result[1].splitlines()

    def verify(self, item, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        if out != item.expect():
            return "stdout differs from the library's output"
        return None

    def replay(self, item, result, span):
        """In-process parsing of the task's inputs, and cli.main itself."""
        for text in item.relation_texts:
            with span("parsing.parse_relation_text"):
                parse_relation_text(text)
        if item.expression:
            with span("parsing.parse_element_expression"):
                parse_element_expression(item.expression, item.group.ring)
        if item.order_text:
            with span("parsing.parse_order_text"):
                parse_order_text(item.order_text)
        if item.command == "eval":
            with span("parsing.parse_normal_form"):
                parse_normal_form(result[1].strip(), item.group)
        with contextlib.redirect_stdout(io.StringIO()):
            with span(f"cli.main.{item.command}"):
                cli.main(list(item.argv))

    def layer_metrics(self, pool, results):
        return startup_metrics(self.env)


def library_env(src: Path) -> dict:
    """The environment under which a fresh interpreter imports mclain from src."""
    return dict(os.environ, PYTHONPATH=str(src))


def import_ms(env: dict) -> float:
    """Cumulative import time of mclain in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mclain"],
        env=env, capture_output=True, text=True, check=True,
    )
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "mclain":
            return int(fields[1]) / 1000
    raise RuntimeError("python -X importtime reported no import of mclain")


def startup_metrics(env: dict, repeats: int = 7) -> dict:
    """Best of several interpreter starts, and of several imports of mclain."""
    starts, imports = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - start)
        imports.append(import_ms(env))
    return {"cli.interp_start_ms": min(starts) * 1000, "cli.import_ms": min(imports)}


def text_of(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def mixed_word(relation: Relation, ring, rng: random.Random) -> GeneratorWord:
    """Generators, an inverse and a commutator, over a seeded set of pairs."""
    pairs = sorted(relation.pairs)

    def gens(count):
        return GeneratorWord(tuple(
            Gen(*rng.choice(pairs), nonzero(ring, rng)) for _ in range(count)
        ))

    return GeneratorWord(
        gens(12).tokens + (Inv(gens(6)), Comm(gens(5), gens(5))) + gens(6).tokens
    )
