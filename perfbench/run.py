"""Benchmark of the weylmahonian package: one workload, one run.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each repetition is a fresh interpreter
(worker.py) that imports the package from src/, starts with empty caches and
runs the workload's items back to back in the seed's order.  Repetitions
follow one another until the next one would end after S seconds.

--trace 0 prints the end-to-end metrics: wall_s (median over repetitions of
the items' summed wall time), setup_s (median time from spawning an
interpreter to the package and its CLI being imported) and peak_rss_mb
(median peak RSS of a repetition's process).  --trace 1 alternates untraced
repetitions with traced ones, which wrap the package's functions
(tracing.py), and prints the per-layer metrics and the tracing overhead.

Every output is checked against references.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it give quartiles, sample counts, failed_frac and the seed; the same
record, and the spans of the last traced repetition, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS
from workloads import WORKLOADS, item_label, seeded_order

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 4  # set-up-only interpreters before each repetition, which gives one more
WORKER_TIMEOUT_S = 150


def spawn(spec: dict) -> tuple[dict | None, str]:
    """Run one worker; return its result (None if it failed) and a short
    error text."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return None, f"worker exit {proc.returncode}: {err[-1] if err else 'no output'}"
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - spawned_at
    return result, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, entries: list[dict]) -> dict:
    """All repetitions of one run, summarised."""
    started = time.monotonic()
    items = seeded_order(entries, seed)
    spawn({"setup_only": True})  # compiles the package's bytecode; not a sample
    setup = []
    trace_file = os.path.join(OUT, f"{workload}-seed{seed}-spans.json") if trace else None
    reps: list[dict] = []
    took = {False: [], True: []}
    attempted = failed = 0
    errors: list[str] = []
    while True:
        batch_started = time.monotonic()
        for _ in range(SETUP_SAMPLES):
            result, _ = spawn({"setup_only": True})
            if result is not None:
                setup.append(result["setup_s"])
        traced = trace and len(reps) % 2 == 1
        result, error = spawn({"items": items, "trace": traced, "trace_file": trace_file})
        attempted += len(items)
        if result is None:  # a broken worker ends the run, its items count as failed
            failed += len(items)
            errors.append(error)
            break
        took[traced].append(time.monotonic() - batch_started)
        result["traced"] = traced
        reps.append(result)
        setup.append(result["setup_s"])
        failed += result["failed"]
        errors.extend(result["failures"])
        if trace and len(reps) < 2:
            continue
        upcoming = trace and len(reps) % 2 == 1
        if time.monotonic() - started + took[upcoming][-1] > seconds:
            break
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in plain],
        "items": [item_label(e["item"]) for e in items],
        "item_s": [r["item_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if traced_reps:
        counts = [r["counts"] for r in traced_reps]
        if any(c != counts[0] for c in counts[1:]):
            errors.append("counts differ between traced repetitions")
        summary["counts"] = counts[0]
        # times are medians over the traced repetitions; counts are equal in all
        summary["layer"] = {
            name: statistics.median(r["layer"][name] for r in traced_reps)
            if kind in ("self", "total") else traced_reps[0]["layer"][name]
            for name, _, kind, _ in LAYER_METRICS
        }
        summary["traced_wall_s"] = [r["wall_s"] for r in traced_reps]
    summary["errors"] = errors[:20]
    summary["correct"] = failed == 0 and not errors and bool(plain) and (bool(traced_reps) or not trace)
    return summary


def metrics_of(summary: dict) -> dict[str, dict]:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    if not summary["trace"]:
        return {
            "wall_s": metric(statistics.median(summary["wall_s"]), "s"),
            "setup_s": metric(statistics.median(summary["setup_s"]), "s"),
            "peak_rss_mb": metric(statistics.median(summary["peak_rss_mb"]), "MB"),
        }
    out = {name: metric(summary["layer"][name], unit) for name, unit, *_ in LAYER_METRICS}
    overhead = statistics.median(summary["traced_wall_s"]) / statistics.median(summary["wall_s"])
    out["trace_overhead"] = metric(overhead, "ratio")
    return out


def report_lines(summary: dict) -> list[str]:
    lines = [f"perfbench workload={summary['workload']} seed={summary['seed']} trace={int(summary['trace'])}"]
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        values = summary[name]
        if values:
            q1, med, q3 = quartiles(values)
            lines.append(f"  {name:12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    frac = summary["failed"] / summary["attempted"]
    lines.append(f"  failed_frac  {frac:.4f}  ({summary['failed']} of {summary['attempted']} operations)")
    if "layer" in summary:
        for name, unit, *_ in LAYER_METRICS:
            value = summary["layer"][name]
            lines.append(f"  {name:38} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
        traced = statistics.median(summary["traced_wall_s"])
        lines.append(f"  traced wall_s median {traced:.4f} s  n={len(summary['traced_wall_s'])}")
    lines.extend(f"  error: {e}" for e in summary["errors"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylmahonian", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    with open(REFERENCES) as fh:
        entries = json.load(fh)[args.workload]
    # The vCPUs of a shared host differ in speed; one fixed CPU for every
    # worker removes the spread that migrations between them add.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    summary = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), entries)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print("\n".join(report_lines(summary)))
    if not summary["wall_s"] or (args.trace and "layer" not in summary):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics_of(summary),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
