"""Properties of the package source itself."""

from __future__ import annotations

import ast
import importlib
import re
import runpy
import sys
from pathlib import Path

import pytest

import mclain

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mclain"
TESTS = ROOT / "tests"

# the public names of the package, sorted
PUBLIC = [
    "AxiomReport",
    "Comm",
    "ExchangeViolation",
    "FactorReport",
    "Gen",
    "GeneratorWord",
    "GroupElement",
    "Integers",
    "IntegersMod",
    "Inv",
    "InvariantError",
    "Matrices2x2Mod",
    "McLainGroup",
    "NgonReport",
    "OrderedForm",
    "Pair",
    "ParseError",
    "ReflexiveViolation",
    "Relation",
    "Ring",
    "RingError",
    "RingValue",
    "SubsetChain",
    "bracket",
    "center_support",
    "chain",
    "check_axioms",
    "closure",
    "coset_representative",
    "demonstrate_ngon_obstruction",
    "difference",
    "format_chain_lines",
    "format_relation",
    "format_word",
    "from_pairs",
    "gamma_series",
    "has_maximal",
    "has_minimal",
    "is_closed",
    "is_normal",
    "isolated",
    "lower_central_series",
    "minimal_closed_support",
    "ngon",
    "ngon_diagonals",
    "ngon_edges",
    "nilpotency_class",
    "normal_closure",
    "ordered_factorization",
    "parse_element_expression",
    "parse_normal_form",
    "parse_order_file",
    "parse_order_text",
    "parse_relation_file",
    "parse_relation_text",
    "parse_ring_spec",
    "quotient_project",
    "random_pruned_order",
    "random_relation",
    "require_valid",
    "spanned_nodes",
    "upper_central_series",
    "word_factorization",
]


def test_self_checks_are_raises_not_asserts():
    # python -O strips assert statements, so a self-check written as one
    # would silently stop running; every check raises explicitly instead.
    # With no read of __debug__ either, -O changes nothing the package does,
    # so each self-check's in-process test covers it under -O as well.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Name) and node.id == "__debug__"
        ]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []


def test_modules_parse_with_the_oldest_supported_grammar():
    # pyproject promises Python 3.10. This checks the grammar only, as
    # ast.parse reads it with feature_version; it cannot catch a library
    # call or behaviour that 3.10 lacks.
    for path in sorted(SRC.glob("*.py")):
        ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10)
        )


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations, which ast keeps as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_modules_use_every_name_they_import():
    # No linter is part of the suite, so an import left behind by a refactor
    # would go unnoticed, in the package or in its tests. A name counts as
    # used wherever it is read, in an annotation too; __init__.py imports to
    # re-export, so it is skipped.
    unused = []
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, ast.Import | ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert len(list(SRC.glob("*.py"))) >= 8 and len(list(TESTS.glob("*.py"))) >= 20
    assert unused == []


def test_every_shared_test_function_is_used():
    # A retired test must not leave its helper, oracle or strategy behind:
    # each top-level function of the shared modules is named somewhere in
    # tests/ outside its own definition.
    shared = {"helpers.py", "oracles.py", "strategies.py"}
    defined, named = set(), set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            own = statement.name if isinstance(statement, ast.FunctionDef) else None
            if own and path.name in shared:
                defined.add(own)
            named |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, ast.Name | ast.Attribute)
            } - {own}
    assert len(defined) >= 40
    assert sorted(defined - named) == []


def test_the_row_kernel_is_called_by_the_ordered_product_and_the_peel_alone():
    # Every ordered product goes through elements._ordered_product, which
    # reverses its factors for the row kernel; the word factorization's
    # undos multiply in on the left as they are. A second spelling of the
    # reversal, or a caller that skips the helper, shows up here.
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            callers += [
                f"{path.stem}.{function.name}"
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and "_generators_times" in (getattr(node.func, a, None) for a in ("id", "attr"))
            ]
    assert sorted(callers) == ["elements._ordered_product", "factorization.word_factorization"]


def test_the_kernels_split_no_pair_code():
    # Coefficient maps are stored by row, so the kernels read each term's row
    # and target as stored: none of them splits a flat pair code, by divmod
    # or by // and %.
    kernels = {"_product", "_divide", "_generators_times", "_ordered_sweep"}
    splits = {}
    for path in (SRC / "elements.py", SRC / "factorization.py"):
        for function in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(function, ast.FunctionDef) and function.name in kernels:
                splits[function.name] = [
                    node.lineno
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod"
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv | ast.Mod)
                ]
    assert splits == {name: [] for name in kernels}


def test_the_unchecked_gen_is_built_by_the_word_factorization_alone():
    # Gen._of skips the value and label checks of Gen(...). Its one caller
    # reads labels off a relation, which applied the label rule, and builds
    # RingValues; any other use, a call or a stored reference, shows up here
    # with the function that makes it (or <module>).
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for function in ast.walk(tree):  # outer first, so the innermost wins
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, function.name) for node in ast.walk(function))
        users += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_of"
            or isinstance(node, ast.Name) and node.id == "_of"
        ]
    assert users == ["factorization.word_factorization"]


def test_the_mutant_list_matches_the_tree():
    # tools/mutate.py applies each mutant by replacing an exact snippet, so a
    # refactor that moves one, or a test file that is renamed, must show here
    # rather than on the next run of the harness.
    mutants = runpy.run_path(str(ROOT / "tools" / "mutate.py"))["MUTANTS"]
    assert len(mutants) >= 41
    for mutant in mutants:
        text = (SRC / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.snippet) == 1, mutant.name
        assert all((ROOT / path).is_file() for path in mutant.killers), mutant.name


def test_property_tests_share_one_seeded_profile():
    # Settings live in tests/strategies.py, whose profile seeds the draws.
    # The derandomizing setting seeds them from each test's source instead,
    # so an edit to a test body would swap its examples. Test modules share
    # strategies through that module, never by importing one another.
    found = []
    for path in sorted(TESTS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "strategies.py" and re.search(r"\bsettings\(", text):
            found.append(f"{path.name} calls settings")
        if re.search(r"derandomi[z]e", text):
            found.append(f"{path.name} seeds draws from the source")
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name} imports {m}" for m in modules if m.startswith("test_")]
    assert found == []


def _definitions() -> dict[str, list[str]]:
    """The modules whose top level defines each name, not by import."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef | ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append(path.stem)
    return found


def test_the_export_table_lists_each_public_name_once():
    # __init__.py holds one sorted table of name -> module. A dict literal
    # keeps the last of two equal keys silently, so the keys are read from
    # the source.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    [table] = [n.value for n in tree.body if isinstance(n, ast.Assign)
               and isinstance(n.value, ast.Dict)]
    keys = [key.value for key in table.keys]
    assert keys == PUBLIC
    assert mclain.__all__ == PUBLIC
    namespace: dict[str, object] = {}
    exec("from mclain import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC


def test_each_public_name_is_read_from_the_module_that_defines_it():
    definitions = _definitions()
    for name in PUBLIC:
        [home] = definitions[name]
        assert mclain._EXPORTS[name] == home, name
        module = importlib.import_module(f"mclain.{home}")
        assert getattr(mclain, name) is getattr(module, name), name


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mclain.no_such_name
    from mclain import cli

    assert cli is sys.modules["mclain.cli"]
