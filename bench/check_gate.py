"""Show that the benchmark's gate trips on a wrong answer.

Runs the arith workload three times in this process, with the default
seed and ``--seconds 0``, so that each run stops after the fewest cycles
that give run.MIN_SAMPLES tasks:

1. unchanged, which must pass, so that the two runs below fail for the
   reason they are meant to;
2. with one coefficient of every ``g.inverse()`` result corrupted, which
   the task's self-checks must catch;
3. with one coefficient of every printed normal form corrupted, which no
   self-check reads but the digest of the default seed must catch.

Each corrupted run must print ``"correct": false`` and exit nonzero. Run
from the root of a checkout:

    python3 bench/check_gate.py

The exit code is 0 when the gate held in every case and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

ARGV = ["--workload", "arith", "--seed", str(run.DEFAULT_SEED), "--seconds", "0"]


def attempt() -> tuple[int, bool]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(ARGV)
    report = json.loads(out.getvalue().strip().splitlines()[-1])
    return code, report["correct"]


def main() -> int:
    run.import_library()
    from mclain.elements import GroupElement

    inverse, to_text = GroupElement.inverse, GroupElement.__str__

    def corrupt_inverse(self):
        coeffs = inverse(self).coefficients()
        pair = min(coeffs)
        coeffs[pair] = coeffs[pair] + self.group.ring.one
        return self.group.element(coeffs)

    def corrupt_text(self):
        return to_text(self).replace("1 + ", "1 + 1", 1)

    cases = [
        ("unchanged", None, None, True),
        ("corrupted inverse", "inverse", corrupt_inverse, False),
        ("corrupted normal form", "__str__", corrupt_text, False),
    ]
    held = True
    for label, attribute, patch, should_pass in cases:
        original = getattr(GroupElement, attribute) if attribute else None
        if attribute:
            setattr(GroupElement, attribute, patch)
        try:
            code, correct = attempt()
        finally:
            if attribute:
                setattr(GroupElement, attribute, original)
        ok = (code == 0 and correct) if should_pass else (code != 0 and not correct)
        held &= ok
        print(f"{label:24} exit {code}  correct {correct}  {'ok' if ok else 'GATE FAILED'}")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
