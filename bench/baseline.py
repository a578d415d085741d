"""Record the baseline in bench/baseline.json.

Run from the root of a checkout:

    python3 bench/baseline.py

It makes SETS sets of runs without tracing. In each set every workload
runs RUNS times on the default seed and RUNS times on the seeds 1, 2, ...,
RUNS; the runs alternate between the two kinds and take the workloads in
turn, so that each sees the machine at many moments. The default-seed runs
give the medians that later commits are compared with, and their spread
shows how much the same inputs move from run to run; the seeded runs show
the spread that seed-to-seed variation adds. TRACE_RUNS traced runs per
workload on the default seed follow.

For each end-to-end metric and each kind, the record gives every set's
median, quartiles and spread (the distance between the quartiles over the
median), the spread as a share of the metric's bound in BENCHMARK.json,
and how far the last set's median moved from the first set's, as a share
of the first. For each per-layer metric it gives the median over the
traced runs. It also records the interpreter, the git commit and the
processor. The summary printed at the end lists the largest spread and
shift of each metric over every workload, which the bounds must exceed
at least threefold.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS, SETS, TRACE_RUNS = 10, 2, 3
DEFAULT_SEED = 0
NOTE = (
    "Recorded with bench/baseline.py on the seed commit's src/ (git_commit), which "
    "this benchmark leaves unchanged. Times are at reference speed (see Speed in "
    "run.py). 'default_seed' holds repeated runs of the default seed, whose outputs "
    "digests.json covers; its medians are the seed commit's numbers. 'seeds' holds "
    "runs on seeds 1..runs_per_set, one run per seed. ROADMAP item 1's baseline "
    "table came from single unscaled runs, read there as +-30%; this record "
    "replaces it."
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not report["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    print(f"{workload:10} seed {seed:3} trace {trace}  ok", file=sys.stderr, flush=True)
    return {name: m["value"] for name, m in report["metrics"].items()}


def summary(values: list[float], bound: float) -> dict:
    low, _, high = statistics.quantiles(values, n=4)
    spread = (high - low) / statistics.median(values)
    return {
        "median": statistics.median(values), "q1": low, "q3": high,
        "spread": spread, "spread_over_bound": spread / bound, "values": values,
    }


def processor() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    kinds = {"default_seed": lambda run: DEFAULT_SEED, "seeds": lambda run: run + 1}

    # sets[kind][set index][workload] -> list of metric dicts
    sets = {kind: [] for kind in kinds}
    for _ in range(SETS):
        for kind in kinds:
            sets[kind].append({w: [] for w in workloads})
        for run in range(RUNS):
            for kind, seed_of in kinds.items():
                for workload in workloads:
                    sets[kind][-1][workload].append(run_once(workload, seed_of(run), seconds, 0))
    traced = {w: [run_once(w, DEFAULT_SEED, seconds, 1) for _ in range(TRACE_RUNS)]
              for w in workloads}

    out = {
        "note": NOTE,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "processor": processor(),
        "run_seconds": seconds,
        "runs_per_set": RUNS,
        "workloads": {},
    }
    worst: dict = {}  # (kind, metric) -> (largest spread, largest |shift|)
    for workload in workloads:
        entry = {"end_to_end": {kind: {} for kind in kinds}, "per_layer": {}}
        for kind in kinds:
            for name, bound in bounds.items():
                per_set = [summary([run[name] for run in runs[workload]], bound)
                           for runs in sets[kind]]
                first, last = per_set[0]["median"], per_set[-1]["median"]
                shift = (last - first) / first
                entry["end_to_end"][kind][name] = {
                    "bound": bound, "sets": per_set, "median_shift": shift,
                }
                spread, moved = worst.get((kind, name), (0.0, 0.0))
                worst[(kind, name)] = (max([spread] + [s["spread"] for s in per_set]),
                                       max(moved, abs(shift)))
        for name in traced[workload][0]:
            entry["per_layer"][name] = statistics.median(run[name] for run in traced[workload])
        out["workloads"][workload] = entry
    out["largest"] = {
        kind: {name: {"spread": worst[(kind, name)][0], "median_shift": worst[(kind, name)][1],
                      "bound": bound}
               for name, bound in bounds.items()}
        for kind in kinds
    }
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")

    for workload in workloads:
        for kind in kinds:
            for name, item in out["workloads"][workload]["end_to_end"][kind].items():
                spreads = " ".join(f"{s['spread']:.3f}" for s in item["sets"])
                print(f"{workload:10} {kind:12} {name:14} median "
                      f"{item['sets'][0]['median']:10.4g}  spread {spreads}  "
                      f"bound {item['bound']}  shift {item['median_shift']:+.3f}")
    for kind, metrics in out["largest"].items():
        for name, item in metrics.items():
            print(f"largest {kind:12} {name:14} spread {item['spread']:.3f}  "
                  f"shift {item['median_shift']:.3f}  bound {item['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
