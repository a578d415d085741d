"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mclain"


def test_self_checks_are_raises_not_asserts():
    # python -O strips assert statements, so a self-check written as one
    # would silently stop running; every check raises explicitly instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
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
    # would go unnoticed. A name counts as used wherever it is read, in an
    # annotation too; __init__.py imports to re-export, so it is skipped.
    unused = []
    for path in sorted(SRC.glob("*.py")):
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
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert len(list(SRC.glob("*.py"))) >= 8
    assert unused == []
