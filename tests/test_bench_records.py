"""Every committed benchmark record has the shape that ``tools/ab.py
--json`` writes, so a record can be read back the way it was written."""

from __future__ import annotations

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_committed_record_has_the_ab_shape():
    record_faults = runpy.run_path(str(ROOT / "tools" / "ab.py"))["record_faults"]
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        assert record_faults(json.loads(path.read_text(encoding="utf-8"))) == [], path.name
