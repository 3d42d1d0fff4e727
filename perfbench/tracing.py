"""Traced-run recorder that wraps the package's public functions from outside.

``Recorder.install`` replaces each function listed in ``WRAPPED`` by a timing
wrapper in every namespace that binds it: the defining module, the modules
that took it with ``from .x import name``, the package ``__init__`` and, for
methods, every alias in the class dictionary (``__rmul__ = __mul__``).  The
package source is not modified.

Three kinds of wrapper:

- SPAN records one span per call: command id, span id, parent id, name,
  start, end and self time.
- HOT is for very hot leaves (``MultiPoly.__mul__``, ``subspace_le``, the
  per-element statistics): calls are aggregated per (parent, name) into a
  count, a summed duration and a summed self time.
- GEN times a generator per ``next()``, so a lazy stream is charged to the
  code that produces it and not to its consumer; ``next()`` calls are
  aggregated like HOT calls and the yielded items are counted.

Self time is a span's duration minus the time its direct children cover.
Everything stays in memory until ``trace_record`` is written at the end.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter

SPAN, HOT, GEN = "span", "hot", "gen"


def _check_span_name(args) -> str:
    return f"checks.{args[0]}"


# (module, attribute, span name, kind)
WRAPPED = (
    ("algebra", "MultiPoly.__mul__", "algebra.poly_mul", HOT),
    ("algebra", "TruncSeries.__mul__", "algebra.series_mul", HOT),
    ("algebra", "MultiPoly.exact_div", "algebra.exact_div", SPAN),
    ("algebra", "poly_text", "algebra.emit.poly_text", HOT),
    ("algebra", "poly_to_json", "algebra.emit.poly_to_json", SPAN),
    ("algebra", "poly_latex_table", "algebra.emit.poly_latex_table", SPAN),
    ("algebra", "TruncSeries.__str__", "algebra.emit.series_text", SPAN),
    ("weylgroups", "enumerate_group", "weylgroups.enumerate", GEN),
    ("weylgroups", "length", "weylgroups.stat.length", HOT),
    ("weylgroups", "wmaj", "weylgroups.stat.wmaj", HOT),
    ("weylgroups", "descent_count", "weylgroups.stat.descent_count", HOT),
    ("weylgroups", "inversions", "weylgroups.stat.inversions", HOT),
    ("weylgroups", "coxeter_word_length", "weylgroups.bfs", HOT),
    ("statistics", "mahonian_recursive", "statistics.recursive", SPAN),
    ("statistics", "mahonian_direct", "statistics.direct", SPAN),
    ("flaggeom", "enumerate_subspaces", "flaggeom.enumerate_subspaces", GEN),
    ("flaggeom", "enumerate_flags", "flaggeom.enumerate_flags", GEN),
    ("flaggeom", "subspace_le", "flaggeom.subspace_le", HOT),
    ("flaggeom", "flag_series", "flaggeom.flag_series", SPAN),
    ("flaggeom", "canonical_basis", "flaggeom.canonical_basis", HOT),
    ("checks", "run_identity_check", _check_span_name, SPAN),
    ("cli", "run", "cli", SPAN),
)


def _observe_poly_mul(counters: Counter, args, result) -> None:
    a, b = args
    b_terms = len(b.terms) if hasattr(b, "terms") else int(b != 0)
    counters["algebra.poly_mul.term_pairs"] += len(a.terms) * b_terms
    if len(result.terms) > counters["algebra.max_terms"]:
        counters["algebra.max_terms"] = len(result.terms)


def _observe_subspace_le(counters: Counter, args, result) -> None:
    if result:
        counters["flaggeom.containment_hits"] += 1


_OBSERVERS = {
    "algebra.poly_mul": _observe_poly_mul,
    "flaggeom.subspace_le": _observe_subspace_le,
}


# (metric, unit, kind, source).  kind: "self" sums self time and
# "total" sums duration over the spans named source or source.*; "calls"
# counts those calls; "counter" reads a counter; "ratio" divides a counter by
# a call count.
LAYER_METRICS = (
    ("algebra.poly_mul.calls", "count", "calls", "algebra.poly_mul"),
    ("algebra.poly_mul.term_pairs", "count", "counter", "algebra.poly_mul.term_pairs"),
    ("algebra.poly_mul.self_s", "s", "self", "algebra.poly_mul"),
    ("algebra.max_terms", "count", "counter", "algebra.max_terms"),
    ("algebra.series_mul.calls", "count", "calls", "algebra.series_mul"),
    ("algebra.series_mul.self_s", "s", "self", "algebra.series_mul"),
    ("algebra.exact_div.self_s", "s", "self", "algebra.exact_div"),
    ("algebra.emit.self_s", "s", "self", "algebra.emit"),
    ("weylgroups.elements", "count", "counter", "weylgroups.enumerate.items"),
    ("weylgroups.enumerate.self_s", "s", "self", "weylgroups.enumerate"),
    ("weylgroups.stat.calls", "count", "calls", "weylgroups.stat"),
    ("weylgroups.stat.self_s", "s", "self", "weylgroups.stat"),
    ("weylgroups.bfs.self_s", "s", "self", "weylgroups.bfs"),
    ("weylgroups.cache_entries", "count", "counter", "weylgroups.cache_entries"),
    ("statistics.recursive.self_s", "s", "self", "statistics.recursive"),
    ("statistics.q_binomial.hits", "count", "counter", "statistics.q_binomial.hits"),
    ("statistics.q_binomial.misses", "count", "counter", "statistics.q_binomial.misses"),
    ("statistics.cache_entries", "count", "counter", "statistics.cache_entries"),
    ("statistics.direct.self_s", "s", "self", "statistics.direct"),
    ("flaggeom.subspaces", "count", "counter", "flaggeom.enumerate_subspaces.items"),
    ("flaggeom.enumerate_subspaces.self_s", "s", "self", "flaggeom.enumerate_subspaces"),
    ("flaggeom.flags", "count", "counter", "flaggeom.enumerate_flags.items"),
    ("flaggeom.enumerate_flags.self_s", "s", "self", "flaggeom.enumerate_flags"),
    ("flaggeom.containment_tests", "count", "calls", "flaggeom.subspace_le"),
    ("flaggeom.containment_hits", "count", "counter", "flaggeom.containment_hits"),
    ("flaggeom.containment_hit_ratio", "ratio", "ratio", ("flaggeom.containment_hits", "flaggeom.subspace_le")),
    ("flaggeom.subspace_le.self_s", "s", "self", "flaggeom.subspace_le"),
    ("flaggeom.flag_series.self_s", "s", "self", "flaggeom.flag_series"),
    ("flaggeom.canonical_basis.calls", "count", "calls", "flaggeom.canonical_basis"),
    ("flaggeom.canonical_basis.self_s", "s", "self", "flaggeom.canonical_basis"),
    ("flaggeom.cache_entries", "count", "counter", "flaggeom.cache_entries"),
    ("checks.points", "count", "counter", "checks.points"),
    ("checks.failed", "count", "counter", "checks.failed"),
    ("checks.self_s", "s", "self", "checks"),
    ("checks.flag_series_theorem.s", "s", "total", "checks.flag_series_theorem"),
    ("checks.direct_vs_recursive.s", "s", "total", "checks.direct_vs_recursive"),
    ("checks.d_wmaj_factorization.s", "s", "total", "checks.d_wmaj_factorization"),
    ("checks.length_vs_bfs.s", "s", "total", "checks.length_vs_bfs"),
    ("cli.self_s", "s", "self", "cli"),
    ("cli.stdout_bytes", "bytes", "counter", "cli.stdout_bytes"),
)


def lru_caches(package: str) -> dict:
    """Every lru_cache defined in the package's modules, by module.name."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith(package + "."):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod_name:
                out[f"{mod_name.rsplit('.', 1)[1]}.{attr}"] = obj
    return out


def cache_counters(caches: dict) -> dict[str, int]:
    """Cache sizes per layer, plus the q-binomial hit and miss counts."""
    out = Counter()
    for key, fn in caches.items():
        info = fn.cache_info()
        layer = key.split(".", 1)[0]
        out[f"{layer}.cache_entries"] += info.currsize
        if key == "statistics.q_binomial":
            out["statistics.q_binomial.hits"] = info.hits
            out["statistics.q_binomial.misses"] = info.misses
    return dict(out)


class Recorder:
    """Spans and counts of one traced repetition."""

    def __init__(self):
        self.spans: list[tuple] = []  # (command, id, parent, name, start, end, self)
        self.nodes: dict[tuple, list] = {}  # (parent, name) -> [command, calls, total, self]
        self.counters: Counter = Counter()
        self.command = 0
        self._stack: list[list] = [[0.0, 0]]  # frames: [time covered by children, id]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- installing the wrappers ------------------------------------------

    def install(self, package: str) -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, attr, name, kind in WRAPPED:
            owner = sys.modules[f"{package}.{mod_name}"]
            *cls, key = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = vars(owner)[key]
            wrapper = self._wrap(name, original, kind)
            namespaces = modules + [owner] if cls else modules
            for ns in namespaces:
                for bound, obj in list(vars(ns).items()):
                    if obj is original:
                        self._patches.append((ns, bound, original))
                        setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, bound, original = self._patches.pop()
            setattr(ns, bound, original)

    def _wrap(self, name, fn, kind):
        stack, spans, nodes, ids, perf = self._stack, self.spans, self.nodes, self._ids, time.perf_counter
        counters = self.counters
        rec = self

        if kind == SPAN:

            @functools.wraps(fn)
            def span(*args, **kwargs):
                span_name = name(args) if callable(name) else name
                parent = stack[-1]
                frame = [0.0, next(ids)]
                stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    parent[0] += end - start
                    spans.append((rec.command, frame[1], parent[1], span_name, start, end, end - start - frame[0]))

            return span

        def close(parent, frame, start):
            took = perf() - start
            stack.pop()
            parent[0] += took
            node = nodes.get(frame[1])
            if node is None:
                nodes[frame[1]] = [rec.command, 1, took, took - frame[0]]
            else:
                node[1] += 1
                node[2] += took
                node[3] += took - frame[0]

        if kind == HOT:
            observe = _OBSERVERS.get(name)

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, (parent[1], name)]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(parent, frame, start)
                if observe is not None:
                    observe(counters, args, result)
                return result

            return hot

        items = f"{name}.items"

        @functools.wraps(fn)
        def gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, (parent[1], name)]
                stack.append(frame)
                start = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(parent, frame, start)
                counters[items] += 1
                yield item

        return gen

    # -- running and reading ------------------------------------------------

    def call(self, name: str, fn, *args):
        """Run fn(*args) as the root span of a new command."""
        self.command += 1
        return self._wrap(name, fn, SPAN)(*args)

    def _by_name(self):
        """(name, calls, total, self) for every recorded span and node."""
        for _, _, _, name, start, end, self_s in self.spans:
            yield name, 1, end - start, self_s
        for (_, name), (_, calls, total, self_s) in self.nodes.items():
            yield name, calls, total, self_s

    def counts(self) -> dict[str, int]:
        """Every count of the run: calls per span name and the counters."""
        out = Counter(self.counters)
        for name, calls, _, _ in self._by_name():
            out[f"{name}.calls"] += calls
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict[str, float]:
        # sums over every span whose name is the prefix or starts with prefix.
        by_prefix = {"calls": Counter(), "self": Counter(), "total": Counter()}
        for name, calls, total, self_s in self._by_name():
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                by_prefix["calls"][prefix] += calls
                by_prefix["self"][prefix] += self_s
                by_prefix["total"][prefix] += total
        out: dict[str, float] = {}
        for metric, _, kind, source in LAYER_METRICS:
            if kind == "counter":
                out[metric] = self.counters[source]
            elif kind == "ratio":
                hits, tests = self.counters[source[0]], by_prefix["calls"][source[1]]
                out[metric] = hits / tests if tests else 0.0
            elif kind == "calls":
                out[metric] = by_prefix[kind][source]
            else:
                out[metric] = float(by_prefix[kind][source])
        return out

    def trace_record(self) -> dict:
        """The spans and aggregated nodes, JSON-ready."""

        def ident(key) -> str:
            return str(key) if isinstance(key, int) else f"{ident(key[0])}/{key[1]}"

        return {
            "spans": [
                {"command": c, "id": i, "parent": p, "name": n, "start": s, "end": e, "self_s": x}
                for c, i, p, n, s, e, x in self.spans
            ],
            "aggregated": [
                {"command": c, "id": ident(key), "parent": ident(key[0]), "name": key[1],
                 "calls": calls, "total_s": total, "self_s": self_s}
                for key, (c, calls, total, self_s) in self.nodes.items()
            ],
        }
