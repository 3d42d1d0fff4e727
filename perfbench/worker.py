"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py < spec.json``, where the spec is

  {"items": [{"item": ..., "digest": ...}, ...], "trace": false,
   "trace_file": null, "setup_only": false}

The worker imports the package from ``src/`` of the checkout it sits in,
asserts that every lru_cache of the package is empty, runs the items back to
back in the given order, checks each output against its digest and prints
one JSON result line.  ``imported_at`` (``time.monotonic()`` once the package
and its CLI are imported) lets the parent measure set-up time from the spawn.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = "weylmahonian"


def import_package():
    """Import the package and its CLI from this checkout's src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import weylmahonian.cli

    if not os.path.abspath(weylmahonian.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} was imported from {weylmahonian.__file__}, not from {SRC}")
    return weylmahonian


if __name__ == "__main__":
    import_package()
    IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (kept out of the set-up time above)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
from workloads import item_label  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    """Digest of the report fields that define a check result.  Fields a
    later version adds to the report (timings, counters) are left out."""
    fields = {k: getattr(report, k) for k in ("name", "params", "passed", "lhs", "rhs", "discrepancy")}
    return sha256(json.dumps(fields, sort_keys=True).encode())


def execute(item):
    """Run one item: the stdout bytes and exit code of a CLI command, or the
    CheckReport of a registry point."""
    from weylmahonian import checks, cli

    if "argv" in item:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(item["argv"])
        return buf.getvalue().encode(), code
    return checks.run_identity_check(item["check"], item["params"])


def output_digest(item, output) -> str:
    return sha256(output[0]) if "argv" in item else report_digest(output)


def problem_with(item, output, digest: str) -> str | None:
    """Why the output is wrong, or None if it matches its reference."""
    if "argv" in item:
        if output[1] != 0:
            return f"exit code {output[1]}"
    elif not output.passed:
        return f"check did not pass: {output.discrepancy}"
    if output_digest(item, output) != digest:
        return "output differs from the pinned reference"
    return None


def run_repetition(spec: dict) -> dict:
    caches = tracing.lru_caches(PACKAGE)
    warm = {k: c.cache_info().currsize for k, c in caches.items() if c.cache_info().currsize}
    if warm:
        raise RuntimeError(f"caches are not empty at start: {warm}")
    rec = tracing.Recorder() if spec["trace"] else None
    if rec is not None:
        rec.install(PACKAGE)
    took: list[float] = []
    failures: list[str] = []
    cache_log = []
    points = failed_points = stdout_bytes = 0
    for entry in spec["items"]:
        item = entry["item"]
        start = time.perf_counter()
        try:
            output = rec.call("bench.item", execute, item) if rec else execute(item)
        except Exception as exc:  # a raising item is a failed operation, not a crash
            took.append(time.perf_counter() - start)
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            took.append(time.perf_counter() - start)
            problem = problem_with(item, output, entry["digest"])
            if "argv" in item:
                stdout_bytes += len(output[0])
        if problem:
            failures.append(f"{item_label(item)}: {problem}")
        if "check" in item:
            points += 1
            failed_points += bool(problem)
        if rec is not None:
            cache_log.append(tracing.cache_counters(caches))
    result = {
        "wall_s": sum(took),
        "item_s": took,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(spec["items"]),
        "failed": len(failures),
        "failures": failures,
    }
    if rec is not None:
        rec.uninstall()
        rec.counters.update(tracing.cache_counters(caches))
        rec.counters.update({"checks.points": points, "checks.failed": failed_points,
                             "cli.stdout_bytes": stdout_bytes})
        result["counts"] = rec.counts()
        result["layer"] = rec.layer_metrics()
        if spec.get("trace_file"):
            record = rec.trace_record()
            record["commands"] = [item_label(e["item"]) for e in spec["items"]]
            record["caches_after_command"] = cache_log
            with open(spec["trace_file"], "w") as fh:
                json.dump(record, fh)
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    result = {"imported_at": IMPORTED_AT}
    if not spec.get("setup_only"):
        result.update(run_repetition(spec))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
