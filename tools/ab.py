"""Interleaved A/B runs of the benchmark, stdlib only:

    python tools/ab.py REV_A REV_B --workload W --pairs N --seconds S [--seed K]
        [--trace 1] [--json PATH]

Each side is the ``src/`` of a git revision, put with ``git archive`` into a
temporary tree beside a copy of this checkout's ``bench/``, so both sides run
the same harness on their own library; the revision ``.`` is the working
tree's ``src/``, uncommitted edits included. Pair k runs
``bench/run.py --workload W --seed K --seconds S`` on A and then on B when k
is odd, on B and then on A when it is even. Each run's end-to-end values and
its unscaled ``tasks_per_s`` and ``task_p50_ms`` print as it ends; with
``--trace 1`` the runs are traced and their per-layer values print instead,
those that are zero in every run left out. At the end, for each metric: both
medians with q1-q3, and in how many pairs B was better (a tie is not).
``--json PATH`` also writes the whole record to PATH: the revisions and the
commits they name, the workload, seed, seconds, pair count and trace flag,
the interpreter version and the number of processors this process may run
on, every run's values in the order they ran, and the summary of each
metric. Exit status: 1 as soon as a run is not ``correct``, 2 when a revision
cannot be archived, else 0. ``record_faults`` checks that a record has that
shape; a committed ``BENCH_*.json`` must pass it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
UNSCALED = re.compile(r"unscaled: tasks_per_s (\S+) 1/s, task_p50_ms (\S+) ms")
RECORD_KEYS = ("revisions", "commits", "workload", "seed", "seconds", "pairs", "trace",
               "python", "nproc", "runs", "summary")


def materialize(rev: str, tree: Path) -> None:
    """tree/src from rev (or from the working tree for "."), tree/bench from here."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "bench", tree / "bench", ignore=skip)
    if rev == ".":
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
        return
    tree.mkdir(exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def commit_of(rev: str) -> str:
    """The commit a revision names; "." is the working tree over HEAD."""
    name = "HEAD" if rev == "." else rev
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{name}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()
    return f"{head} with the working tree's src/" if rev == "." else head


def run_once(tree: Path, args: argparse.Namespace) -> dict | None:
    """One benchmark run: its metrics and unscaled figures, or None if not correct."""
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if not report.get("correct"):
        sys.stdout.write(proc.stdout + proc.stderr)
        return None
    values = {name: entry["value"] for name, entry in report["metrics"].items()}
    if not args.trace:
        unscaled = UNSCALED.search(proc.stdout)  # a correct untraced run always prints it
        values["unscaled tasks_per_s"] = float(unscaled.group(1))
        values["unscaled task_p50_ms"] = float(unscaled.group(2))
    return values


def record_faults(record: dict) -> list[str]:
    """How a record departs from the shape ``--json`` writes: the keys of
    RECORD_KEYS, two runs per pair and, untraced, a summary entry for each
    end-to-end metric of ``bench/run.py``, each over every pair."""
    if sorted(record) != sorted(RECORD_KEYS):
        return [f"keys {sorted(record)}, expected {sorted(RECORD_KEYS)}"]
    pairs, summary, faults = record["pairs"], record["summary"], []
    if len(record["runs"]) != 2 * pairs:
        faults.append(f"{len(record['runs'])} runs for {pairs} pairs")
    if not record["trace"]:
        harness = runpy.run_path(str(ROOT / "bench" / "run.py"))
        for name, _, _ in harness["END_TO_END"]:
            if summary.get(name, {}).get("pairs") != pairs:
                faults.append(f"no summary of {name} over {pairs} pairs")
    return faults


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def shown(summary: dict) -> str:
    return f"{summary['median']:.4g} ({summary['q1']:.4g}-{summary['q3']:.4g})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH", type=Path)
    args = parser.parse_args(argv)
    harness = runpy.run_path(str(ROOT / "bench" / "run.py"))
    if args.trace:
        specs = harness["per_layer_specs"]()
        better = {name: side for name, _, side in specs}
    else:
        better = {name: side for name, _, side in harness["END_TO_END"]}
        better["unscaled tasks_per_s"], better["unscaled task_p50_ms"] = "higher", "lower"

    with tempfile.TemporaryDirectory() as scratch:
        trees = {"A": Path(scratch) / "a", "B": Path(scratch) / "b"}
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            try:
                materialize(rev, trees[side])
            except subprocess.CalledProcessError as exc:
                print(f"error: cannot archive {rev}: {exc.stderr.decode().strip()}")
                return 2
        print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s: "
              f"A = {args.rev_a}, B = {args.rev_b}", flush=True)
        runs: dict[str, list[dict]] = {"A": [], "B": []}
        order: list[dict] = []
        for k in range(1, args.pairs + 1):
            for side in ("A", "B") if k % 2 else ("B", "A"):
                values = run_once(trees[side], args)
                if values is None:
                    print(f"error: pair {k}, side {side} is not correct")
                    return 1
                runs[side].append(values)
                order.append({"pair": k, "side": side, "metrics": values})
                text = "  ".join(f"{name} {value:.4g}" for name, value in values.items()
                                 if value or not args.trace)
                print(f"pair {k} {side}: {text}", flush=True)

    summary = {}
    for name, side in better.items():
        a, b = ([values[name] for values in runs[s]] for s in ("A", "B"))
        if args.trace and not any(a + b):
            continue
        wins = sum(y > x if side == "higher" else y < x for x, y in zip(a, b))
        summary[name] = {"better": side, "A": spread(a), "B": spread(b),
                         "b_better": wins, "pairs": len(a)}
    width = max(map(len, summary), default=6)
    print(f"{'metric':{width}} {'A median (q1-q3)':28} {'B median (q1-q3)':28} B better")
    for name, entry in summary.items():
        print(f"{name:{width}} {shown(entry['A']):28} {shown(entry['B']):28} "
              f"{entry['b_better']} of {entry['pairs']}")
    if args.json:
        record = {
            "revisions": {"A": args.rev_a, "B": args.rev_b},
            "commits": {"A": commit_of(args.rev_a), "B": commit_of(args.rev_b)},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "trace": args.trace,
            "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "runs": order, "summary": summary,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
