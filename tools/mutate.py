"""Mutation check of the test suite, stdlib only: ``python tools/mutate.py``.

Each mutant replaces one exact snippet of a file under ``src/mclain`` in a
temporary copy of ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``,
where ``pytest -x`` runs the test paths named to kill it, or all of ``tests/``
for a mutant marked equivalent, which must survive. A failing or timed-out
run kills. Exit status: 2, before any run, when a snippet does not occur
exactly once or a test path is missing; 1 when the unmutated tests fail or an
outcome differs from its mark; else 0. Two mutants run at a time, the
equivalents, which run the whole suite, submitted first so that the kills
fill the other worker; the outcomes print in list order.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds for one pytest run
# a mutated tree no longer holds its own snippet, so the list check is left out
LIST_CHECK = "tests/test_source.py::test_the_mutant_list_matches_the_tree"
KERNELS = ("tests/test_code_kernels.py",)
CALCULUS = ("tests/test_mask_calculus.py",)
ORDERED = ("tests/test_ordered_properties.py",)
SERIES = ("tests/test_series.py",)
FACTORIZATION = ("tests/test_factorization.py",)
SOURCE = ("tests/test_source.py",)
RECORDS = ("tests/test_records.py",)
RINGS = ("tests/test_rings.py",)
ELEMENTS = ("tests/test_elements.py",)
LABELS = ("tests/test_labels.py",)
EQUIVALENT = ()  # no test can tell the mutant from the program

# file is under src/mclain; killers are the test paths expected to kill it
M = Mutant = namedtuple("Mutant", "name file snippet replacement killers")
MUTANTS = [
    # the pair-code kernels of elements.py and their label edges
    M("splice harvests every slot", "elements.py",
      "for l in succ[i]:", "for l in range(n):", KERNELS),
    M("row kernel admits every composite", "elements.py",
      "rows.setdefault(p, {}), admits[p]", "rows.setdefault(p, {}), -1", KERNELS),
    M("splice harvests by column masks", "elements.py",
      "for l in succ[i]:", "for l in (y for y in range(n) if index.cols[i] >> y & 1):",
      KERNELS),
    M("pair codes transposed", "relations.py",
      "by_code[x * n + y] = pair", "by_code[y * n + x] = pair", KERNELS),
    M("codes decode transposed", "relations.py",
      "by_code[x * n + y] for x, y", "by_code[y * n + x] for x, y", KERNELS),
    M("row kernel output codes transposed", "elements.py",
      "i * n + j: a for i, row", "j * n + i: a for i, row", KERNELS),
    M("row kernel multiplies b c", "elements.py",
      "fma(row_p.get(l, zero), c, b)", "fma(row_p.get(l, zero), b, c)", KERNELS),
    # the ring hook under the splice and the division
    M("M2 axpy multiplies b a", "rings.py",
      "s[0] + a11 * b11 + a12 * b21,\n                s[1] + a11 * b12 + a12 * b22,\n"
      "                s[2] + a21 * b11 + a22 * b21,\n                s[3] + a21 * b12 + a22 * b22,",
      "s[0] + b11 * a11 + b12 * a21,\n                s[1] + b11 * a12 + b12 * a22,\n"
      "                s[2] + b21 * a11 + b22 * a21,\n                s[3] + b21 * a12 + b22 * a22,",
      KERNELS),
    M("scalar axpy adds into the slot before", "rings.py",
      "sums[l] += a * b", "sums[l - 1] += a * b", KERNELS),
    M("scalar value skips the reduction", "rings.py",
      "return self.from_int(payload)", "return RingValue(self, payload)", RINGS),
    M("division skips the normalization", "elements.py",
      "z = add(zero, z)", "pass", KERNELS),
    M("splice keeps zeros", "elements.py", "if c != zero:", "if True:", KERNELS),
    M("product loading overwrites a filled slot", "elements.py",
      "row[j] = a if s is zero else add(s, a)", "row[j] = a", KERNELS),
    M("division loading overwrites u", "elements.py",
      "row[l] = c if s is zero else add(s, c)", "row[l] = c", KERNELS),
    M("row kernel keeps zeros", "elements.py",
      "for j, a in row.items() if a != zero", "for j, a in row.items()", KERNELS),
    M("product drops x from its base", "elements.py",
      "row[j] = a if s is zero else add(s, a)", "row[j] = s", KERNELS),
    M("division walks deep levels first", "elements.py",
      "for l in levels[i]:", "for l in reversed(levels[i]):", KERNELS),
    M("division walks a row's targets in sorted order", "elements.py",
      "for l in levels[i]:", "for l in sorted(levels[i]):", KERNELS),
    M("payloads keep zeros", "elements.py", "if payload != zero:", "if True:", KERNELS),
    M("division does not negate w", "elements.py", "c = neg(c)", "c = c", KERNELS),
    M("division keeps zeros", "elements.py", "if z == zero:", "if False:", KERNELS),
    M("division takes a row an axpy reached as reduced", "elements.py",
      "reached = True", "reached = False", KERNELS),
    M("word joins a run on the wrong side", "elements.py",
      "_product(self, out, run_map)", "_product(self, run_map, out)", KERNELS),
    M("ordered product feeds its first factor first", "elements.py",
      "reversed(list(factors))", "list(factors)", ORDERED),
    # the mask calculus of relations.py and its readers
    M("descent keeps by rows only", "relations.py",
      "if rows[x] & right[y] or cols[y] & left[x]:", "if rows[x] & right[y]:", CALCULUS),
    M("descent keeps by columns only", "relations.py",
      "if rows[x] & right[y] or cols[y] & left[x]:", "if cols[y] & left[x]:", CALCULUS),
    M("absorption tests rows only", "relations.py",
      "& ~s_rows[x] or p_cols[x]", "& ~s_rows[x] or 0 & p_cols[x]", CALCULUS),
    M("absorption tests columns only", "relations.py",
      "if p_rows[y] & d_rows[x]", "if 0 & p_rows[y] & d_rows[x]", CALCULUS),
    M("saturation without right composites", "relations.py",
      "right = p_rows[y] & d_rows[x] & ~rows[x]", "right = 0", CALCULUS),
    M("saturation without left composites", "relations.py",
      "left = p_cols[x] & d_cols[y] & ~cols[y]", "left = 0", CALCULUS),
    M("descent stall is a break", "relations.py",
      "raise InvariantError(stall)", "break", CALCULUS),
    M("gamma series skips the closedness check", "relations.py",
      "if not _absorbs(live, delta, masks, normal=False):", "if False:", CALCULUS),
    M("isolated without columns", "relations.py",
      "if not rows[x] & rows[y] | cols[x] & cols[y]]", "if not rows[x] & rows[y]]", CALCULUS),
    M("peel without columns", "factorization.py",
      "not rows[code // n] & cols[code % n]", "not rows[code // n]", CALCULUS),
    M("levels deepest first", "relations.py",
      '_bracket_rounds(*_closed_subset(self.pairs, self, "relation")):',
      'reversed(_bracket_rounds(*_closed_subset(self.pairs, self, "relation"))):', CALCULUS),
    M("axiom scan misses a present (i,k)", "relations.py",
      "bad = common & ~after_y if has_xz", "bad = 0 if has_xz", CALCULUS),
    M("axiom scan misses an absent (i,k)", "relations.py",
      "else common & after_y", "else 0", CALCULUS),
    M("axiom scan skips every couple source", "relations.py",
      "if not risk:", "if True:", CALCULUS),
    M("axiom scan clears S[y] for every source", "relations.py",
      "if not after_y & ~after_x:", "if True:", CALCULUS),
    M("bracket without left composites", "relations.py",
      "out.update((z, y) for z in _bits(s_cols[x] & d_cols[y]))", "pass", CALCULUS),
    M("upper series skips validation", "series.py",
      "require_valid(delta)\n    n, decode", "n, decode", CALCULUS),
    # the quotient cache, the projection, the word factorization's pass bound
    # and the n-gon demonstration's exact forcing test
    M("difference cache keyed by delta alone", "relations.py",
      "out = quotients.get(key)", "out = next(iter(quotients.values()), None)", SERIES),
    M("projection keeps every pair", "factorization.py",
      "if code not in doomed}", "}", SERIES),
    M("word factorization without its pass bound", "factorization.py",
      "if passes == n:", "if False:", FACTORIZATION),
    M("n-gon forcing test without columns", "factorization.py",
      "rows[number[x]] & cols[number[y]] for", "rows[number[x]] for", FACTORIZATION),
    # the words: inv(...) and comm(...) take words only, and Gen(...) a ring
    # value and labels under the rule, which the parser relies on
    M("inv and comm take any sub-word", "elements.py",
      "if not isinstance(word, GeneratorWord):", "if False:", ELEMENTS),
    M("Gen skips its label check", "elements.py",
      "_require_label_rule((source, target))", "pass", LABELS),
    M("Gen takes any value", "elements.py",
      "if not isinstance(value, RingValue):", "if False:", ELEMENTS),
    M("parser builds the unchecked Gen", "parsing.py",
      "return (Gen(source, target, value),)", "return (Gen._of(source, target, value),)",
      LABELS),
    # the export table and the modules each command loads
    M("export filed under a module that only imports it", "__init__.py",
      '"ngon": "relations",', '"ngon": "factorization",', SOURCE),
    M("cli imports the factorizations up front", "cli.py",
      "from .rings import RingError\n",
      "from .rings import RingError\nfrom .factorization import quotient_project\n", RECORDS),
    # equivalent: each changes work or order that no result depends on
    M("sweep bisects left", "factorization.py",
      "import bisect_right", "import bisect_left as bisect_right", EQUIVALENT),
    M("pruned order samples with <=", "relations.py",
      "forward if rng.random() < density", "forward if rng.random() <= density", EQUIVALENT),
    M("proper gamma sheds in reverse sorted order", "relations.py",
      'closed subset")', 'closed subset")\n    live.sort(reverse=True)', EQUIVALENT),
]


def faults() -> list[str]:
    """What in the list no longer matches the tree."""
    out = []
    for m in MUTANTS:
        count = (ROOT / "src" / "mclain" / m.file).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            out.append(f"{m.name}: snippet occurs {count} times in {m.file}")
        out += [f"{m.name}: no test path {p}" for p in m.killers if not (ROOT / p).exists()]
    return out


def fails(paths: tuple, mutant: Mutant | None = None) -> bool:
    """Do these tests fail on a fresh copy of the tree, with the mutant applied?"""
    with tempfile.TemporaryDirectory() as scratch:
        tree, skip = Path(scratch), shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tree / name)
        if mutant:
            source = tree / "src" / "mclain" / mutant.file
            text = source.read_text(encoding="utf-8")
            source.write_text(text.replace(mutant.snippet, mutant.replacement), "utf-8")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["--deselect", LIST_CHECK, *paths]
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        try:
            run = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True
        return run.returncode != 0


def timed(mutant: Mutant) -> tuple[bool, float]:
    start = time.monotonic()
    return fails(mutant.killers or ("tests",), mutant), time.monotonic() - start


def main() -> int:
    if problems := faults():
        print("\n".join(problems))
        return 2
    control = tuple(sorted({p for m in MUTANTS for p in m.killers}))
    if fails(control):
        print(f"the unmutated tests fail: {' '.join(control)}")
        return 1
    status = 0
    with ThreadPoolExecutor(2) as pool:
        slow_first = sorted(MUTANTS, key=lambda m: bool(m.killers))
        runs = {m.name: pool.submit(timed, m) for m in slow_first}
        for m in MUTANTS:
            killed, seconds = runs[m.name].result()
            mark = "ok" if killed == bool(m.killers) else "UNEXPECTED"
            outcome = "killed" if killed else "survived"
            print(f"{outcome:8} {mark:10} {seconds:5.1f}s  {m.file}: {m.name}", flush=True)
            status |= killed != bool(m.killers)
    return status


if __name__ == "__main__":
    sys.exit(main())
