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
