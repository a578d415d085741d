"""Subprocesses that the tests start (``python -m mclain``) import the
package from ``src/``, as the test process itself does through the
``pythonpath`` setting in pyproject.toml, so no install is needed.

The shared modules assert too (``helpers.both_maps`` checks that the two
payload filters agree), so pytest rewrites their asserts as it does a test
module's, and they still run under ``python -O``."""

import os
from pathlib import Path

import pytest

pytest.register_assert_rewrite("helpers", "oracles", "strategies")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
