"""Tests of the benchmark itself, on small subsets of the pinned items.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os

import run
from tracing import LAYER_METRICS
from workloads import WORKLOADS, seeded_order

with open(run.REFERENCES) as fh:
    REFERENCES = json.load(fh)

# Rank-2 registry points over F_2 or no field: cheap, yet they fill every
# cache of the package (recursions, q-binomials, BFS tables, subspace levels,
# flag tallies).
SMALL_POINTS = [
    e for e in REFERENCES["verify_grid"]
    if e["item"]["params"].get("d") == 2 and e["item"]["params"].get("p", 2) == 2
]


def test_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert sorted(REFERENCES) == sorted(WORKLOADS)
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert layer == [(name, unit) for name, unit, *_ in LAYER_METRICS] + [("trace_overhead", "ratio")]


def test_small_subset_fills_every_cache():
    names = {e["item"]["check"] for e in SMALL_POINTS}
    assert {"direct_vs_recursive", "length_vs_bfs", "flag_series_theorem", "canonical_cell_counts"} <= names


def test_corrupted_reference_counts_as_failed():
    command = REFERENCES["recursion"][0]
    entries = SMALL_POINTS[:20] + [command]
    corrupted = [dict(e) for e in entries]
    corrupted[5]["digest"] = "0" * 64
    corrupted[-1]["digest"] = "0" * 64
    summary = run.run_benchmark("verify_grid", seed=1, seconds=0, trace=False, entries=corrupted)
    assert summary["attempted"] == len(entries)
    assert summary["failed"] == 2
    assert not summary["correct"]
    assert any("differs from the pinned reference" in e for e in summary["errors"])


def test_counts_do_not_depend_on_seed(tmp_path):
    results = []
    orders = []
    for seed in (1, 2):
        items = seeded_order(SMALL_POINTS, seed)
        orders.append([e["item"] for e in items])
        trace_file = tmp_path / f"spans-{seed}.json"
        result, error = run.spawn({"items": items, "trace": True, "trace_file": str(trace_file)})
        assert result is not None, error
        assert result["failed"] == 0, result["failures"]
        results.append((result, json.loads(trace_file.read_text())))
    assert orders[0] != orders[1]
    (first, record), (second, _) = results
    assert first["counts"] == second["counts"]
    assert first["counts"]["checks.points"] == len(SMALL_POINTS)
    assert first["layer"]["statistics.cache_entries"] > 0
    assert first["layer"]["flaggeom.cache_entries"] > 0

    # self times partition each command's root span
    roots = sum(s["end"] - s["start"] for s in record["spans"] if s["parent"] == 0)
    selves = sum(s["self_s"] for s in record["spans"]) + sum(a["self_s"] for a in record["aggregated"])
    assert abs(roots - selves) < 1e-6 * len(record["spans"] + record["aggregated"])
    assert len({s["command"] for s in record["spans"] if s["parent"] == 0}) == len(SMALL_POINTS)
