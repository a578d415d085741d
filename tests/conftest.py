"""Subprocesses that the tests start (``python -m mclain``) import the
package from ``src/``, as the test process itself does through the
``pythonpath`` setting in pyproject.toml, so no install is needed."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
