"""Benchmark of the mclain package: four seeded workloads, one task at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload arith --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py for what each task does and why):

    arith      dense products, inverses and commutators (rings, elements)
    structure  relation calculus and central series (relations, series)
    factor     word and ordered factorizations, quotients (factorization)
    cli        the mclain command as a subprocess (parsing, cli, import)

Each workload is a closed loop with one client and one thread, pinned with
its subprocesses to one processor. It imports
mclain from ``src/`` of the checkout, builds its inputs from the seed and
cycles through them, one timed task per input, until ``--seconds`` of
wall time have passed and at least MIN_SAMPLES tasks have run, always
finishing a cycle. A task's result is checked outside its timed interval:
on first sight of an input by the workload's self-checks, on later cycles
by equality with the checked output of the same input. With the default
seed the outputs of the first cycle must also match the SHA-256 recorded
in ``digests.json``.

``--trace 0`` prints the end-to-end metrics:

    tasks_per_s   passing tasks per second of task time
    task_p50_ms   median task latency
    task_tail_ms  p90 by nearest rank, printed with the samples beyond it
    setup_s       median of SETUP_REPEATS set-ups, each an import of mclain
                  in a fresh interpreter plus one build of the inputs
    peak_rss_mb   peak resident set of this process; for cli, of the
                  largest mclain subprocess

All times are scaled to reference speed (see Speed), because a shared
processor can change speed by up to 2x from one second to the next; the
unscaled figures are printed too.
``fail_frac`` is printed as well, and is ``failed / attempted`` in the
JSON line.

``--trace 1`` alternates untraced and traced cycles. Traced cycles record a
span around every call the benchmark makes into a public function of
mclain; the spans are summed into the per-layer metrics and written to
``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
task passed its checks and the digest matched, 1 when one did not, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
REFERENCE_S = 1e-3  # reference_loop time at reference speed
SPEED_WINDOW_S = 0.5  # reference runs this close to a timing set its speed
# A run takes between these many samples, so that at least ten lie beyond
# p90 and fewer than ten beyond p99: p90 is the highest percentile with ten
# samples beyond it.
MIN_SAMPLES, MAX_SAMPLES = 100, 999
TAIL_PERCENTILE = 90
WORKLOADS = ("arith", "structure", "factor", "cli")
CLI_COMMANDS = ("check", "series", "eval", "factor", "quotient")

# Public functions the benchmark puts a span around, by module.
SPANNED = (
    "elements.mul", "elements.inverse", "elements.commutator",
    "elements.element", "elements.eval_word",
    "relations.from_pairs", "relations.check_axioms", "relations.closure",
    "relations.normal_closure", "relations.gamma_series",
    "relations.difference", "relations.random_pruned_order",
    "series.lower_central_series", "series.upper_central_series",
    "series.quotient_project", "series.coset_representative",
    "factorization.minimal_closed_support",
    "factorization.word_factorization", "factorization.ordered_factorization",
    "parsing.parse_relation_text", "parsing.parse_element_expression",
    "parsing.parse_order_text", "parsing.parse_normal_form",
)

END_TO_END = (
    ("tasks_per_s", "1/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
    ("task_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better); zero where unused."""
    out = []
    for name in SPANNED:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.busy_ms", "ms", "lower"),
            (f"{name}.share", "frac", "lower"),
        ]
    for op in ("mul", "add"):
        out += [(f"rings.{op}_ns.{key}", "ns", "lower") for key in ("z", "z7", "m2z3")]
    out += [
        ("elements.mul.splice_pairs", "count", "lower"),
        ("elements.mul.splice_hit_frac", "frac", "higher"),
        ("relations.check_axioms.paths3", "count", "lower"),
        ("cli.interp_start_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    out += [(f"cli.main_ms.{command}", "ms", "lower") for command in CLI_COMMANDS]
    out.append(("trace_overhead_frac", "frac", "lower"))
    return out


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, task id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.task: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None,
                  self.task]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, task in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "task": task}) + "\n")


_NO_SPAN = nullcontext()


def no_span(name: str):
    return _NO_SPAN


def reference_loop() -> None:
    """Fixed pure-Python work, independent of mclain: tuple keys, dict updates
    and int arithmetic. It takes about REFERENCE_S on an idle core of the
    processor named in baseline.json, under Python 3.11."""
    counts: dict = {}
    for i in range(3500):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * 3


class Speed:
    """The machine's speed through a run, from the reference loop.

    The processor of a shared machine can run up to twice as slow, for
    anything from a fraction of a second to minutes, and slows mclain and
    the reference loop alike. The loop runs just before and just after
    every task and set-up; each time is then scaled to reference speed,
    at which the loop takes REFERENCE_S, by the median of the loop's times
    within SPEED_WINDOW_S of the timed interval.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        began = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - began)

    def scale(self, began: float, seconds: float) -> float:
        low = bisect.bisect_left(self.ends, began - SPEED_WINDOW_S)
        high = bisect.bisect_right(self.ends, began + seconds + SPEED_WINDOW_S)
        return seconds * REFERENCE_S / median(self.durations[low:max(high, low + 1)])


def import_library():
    """Import mclain from this checkout's src/, and nothing else."""
    package = ROOT / "src" / "mclain"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no mclain package under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import mclain

    if Path(mclain.__file__).resolve().parent != package.resolve():
        raise ImportError(f"mclain was imported from {mclain.__file__}, not {package}")
    import workloads

    return workloads


def make_workload(name: str, workloads, seed: int):
    if name == "cli":
        return workloads.CliWorkload(ROOT, OUT / f"cli-seed{seed}")
    return {"arith": workloads.Arith, "structure": workloads.Structure,
            "factor": workloads.Factor}[name]()


def tail(latencies: list[float]) -> tuple[float, int]:
    """TAIL_PERCENTILE of the sorted latencies by nearest rank, and the
    number of samples beyond it."""
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(latencies))
    return latencies[rank - 1], len(latencies) - rank


def measure(workload, pool: list, seconds: float, trace: bool, speed: Speed,
            between: Callable):
    """Cycle through the pool; return samples, failures, first outputs, tracer.

    A sample is (traced, input index, start, latency in s, passed). Cycles
    alternate untraced and traced when trace is on; the run always
    completes its last cycle. ``between`` runs after each cycle, outside
    the timed tasks.
    """
    tracer = Tracer()
    replay = getattr(workload, "replay", None)
    samples: list[tuple[bool, int, float, float, bool]] = []
    failures: list[str] = []
    checked: list = [None] * len(pool)  # verified output lines per input
    results: list = [None] * len(pool)
    start = time.perf_counter()
    cycle = 0
    while (
        cycle < (2 if trace else 1)
        or time.perf_counter() - start < seconds
        or len(samples) < MIN_SAMPLES
    ) and len(samples) + len(pool) <= MAX_SAMPLES:
        traced = trace and cycle % 2 == 1
        span = tracer.span if traced else no_span
        for index, item in enumerate(pool):
            tracer.task = len(samples)
            speed.sample()
            began = time.perf_counter()
            try:
                with span("task"):
                    result = workload.run(item, span)
            except Exception:  # a task that raises counts as failed
                samples.append((traced, index, began, time.perf_counter() - began, False))
                failures.append(f"input {index}: {traceback.format_exc(limit=4)}")
                continue
            latency = time.perf_counter() - began
            speed.sample()
            try:
                problem = check(workload, item, result, index, checked, results)
            except Exception:
                problem = traceback.format_exc(limit=4)
            if problem:
                failures.append(f"input {index}: {problem}")
            samples.append((traced, index, began, latency, not problem))
            if traced and replay is not None:
                replay(item, result, span)
        cycle += 1
        between()
    tracer.task = None
    return samples, failures, checked, results, tracer, cycle


def check(workload, item, result, index, checked, results) -> str | None:
    """Self-checks on first sight of an input; later, equality with those outputs."""
    lines = workload.lines(item, result)
    if checked[index] is not None:
        if lines != checked[index]:
            return "output differs from the checked output of the same input"
        return None
    problem = workload.verify(item, result)
    if problem is None:
        checked[index] = lines
        results[index] = result
    return problem


def digest_of(checked: list) -> str:
    sha = hashlib.sha256()
    for lines in checked:
        for line in lines or ["<unchecked>"]:
            sha.update(line.encode("utf-8") + b"\n")
    return sha.hexdigest()


def scaled_latencies(samples, speed: Speed, traced: bool) -> list[float]:
    """Passing tasks' latencies at reference speed, sorted."""
    return sorted(speed.scale(began, latency)
                  for was_traced, _, began, latency, ok in samples
                  if ok and was_traced == traced)


def end_to_end(samples, speed: Speed, setup_s: float, peak_rss_mb: float):
    latencies = scaled_latencies(samples, speed, traced=False)
    if not latencies:  # every task failed; the run reports failure anyway
        return {name: 0.0 for name, _, _ in END_TO_END}, "no task passed"
    tail_s, beyond = tail(latencies)
    values = {
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_p50_ms": median(latencies) * 1000,
        "task_tail_ms": tail_s * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    note = f"p{TAIL_PERCENTILE}, {beyond} of {len(latencies)} samples beyond"
    return values, note


def per_layer(samples, speed: Speed, tracer: Tracer, extras: dict,
              traced_cycles: int) -> dict:
    """Span totals per traced cycle, i.e. per pass over the inputs, unscaled."""
    traced_time = sum(lat for traced, _, _, lat, _ in samples if traced)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for name, start, end, _, task in tracer.spans:
        if name != "task" and task is not None:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
    values = {name: 0 for name, _, _ in per_layer_specs()}
    for name in SPANNED:
        values[f"{name}.calls"] = calls.get(name, 0) / traced_cycles
        values[f"{name}.busy_ms"] = busy.get(name, 0.0) * 1000 / traced_cycles
        values[f"{name}.share"] = busy.get(name, 0.0) / traced_time
    for command in CLI_COMMANDS:
        durations = [end - start for name, start, end, _, _ in tracer.spans
                     if name == f"cli.main.{command}"]
        if durations:
            values[f"cli.main_ms.{command}"] = median(durations) * 1000
    values.update(extras)
    untraced = scaled_latencies(samples, speed, traced=False)
    traced = scaled_latencies(samples, speed, traced=True)
    if untraced and traced:
        values["trace_overhead_frac"] = 1 - (
            (len(traced) / sum(traced)) / (len(untraced) / sum(untraced)))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One processor for this process and its subprocesses, so that the
    # reference loop sees the speed of the processor that runs the tasks.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = make_workload(args.workload, workloads, args.seed)
    env = workloads.library_env(ROOT / "src")
    speed = Speed()
    setups: list[tuple[float, float]] = []  # (start, seconds)

    def set_up() -> list:
        """One set-up: import mclain in a fresh interpreter, then build the inputs."""
        speed.sample()
        began = time.perf_counter()
        imported = workloads.import_ms(env) / 1000
        built = time.perf_counter()
        pool = workload.setup(args.seed)
        setups.append((began, imported + time.perf_counter() - built))
        speed.sample()
        return pool

    def one_more_set_up() -> None:
        if len(setups) < SETUP_REPEATS:
            set_up()

    try:
        pool = set_up()
        samples, failures, checked, results, tracer, cycles = measure(
            workload, pool, args.seconds, bool(args.trace), speed, one_more_set_up)
        while len(setups) < SETUP_REPEATS:
            set_up()
        extras = workload.layer_metrics(pool, results) if args.trace else {}
    finally:
        if args.workload == "cli":
            shutil.rmtree(workload.work, ignore_errors=True)
    setup_s = median(speed.scale(began, seconds) for began, seconds in setups)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    digest = digest_of(checked)
    expected = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    if args.seed == DEFAULT_SEED:
        if digest != expected.get(args.workload):
            failures.append(f"digest {digest} does not match digests.json")
            digest_note = "MISMATCH"
        else:
            digest_note = "matches digests.json"
    else:
        digest_note = f"not checked (seed {args.seed})"
    for failure in failures[:5]:
        print(f"FAILED: {failure}", file=sys.stderr)

    attempted = len(samples)
    failed = sum(not ok for *_, ok in samples)
    correct = not failures
    print(f"workload {args.workload}  seed {args.seed}  cycles {cycles}  "
          f"inputs {len(pool)}  tasks {attempted}")
    print(f"digest {digest}  {digest_note}")
    if args.trace:
        metrics = per_layer(samples, speed, tracer, extras, cycles // 2)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        specs = per_layer_specs()
    else:
        metrics, note = end_to_end(samples, speed, setup_s, peak_rss_mb)
        specs = END_TO_END
        unscaled = sorted(lat for traced, _, _, lat, ok in samples if ok and not traced)
        if unscaled:
            print(f"unscaled: tasks_per_s {len(unscaled) / sum(unscaled):.6g} 1/s, "
                  f"task_p50_ms {median(unscaled) * 1000:.6g} ms; reference loop median "
                  f"{median(speed.durations) * 1000:.4g} ms, "
                  f"{REFERENCE_S * 1000:g} ms at reference speed")
        print(f"{'fail_frac':28} {failed / attempted:.4g} ({failed} of {attempted})")
    for name, unit, _ in specs:
        extra = f"  ({note})" if name == "task_tail_ms" else ""
        print(f"{name:28} {metrics[name]:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
