"""Per-layer spans recorded from outside the package.

The tracer wraps the benchmark's entry-point calls and patches the module
attributes through which the package calls its own layers (the ``*_from_spec``
parsers that ``family_graph`` imports at call time, and the
``steiner_distance`` / ``distance_matrix`` names bound in ``twindex.reduced``
and ``twindex.steiner``). Nothing under ``src/`` is edited; ``uninstall``
restores every patched attribute.

A span is ``(name, start_ns, end_ns, parent, query)``: ``parent`` indexes the
enclosing span (-1 for a query root) and ``query`` numbers the query. Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
from collections import Counter, defaultdict
from math import comb
from time import perf_counter_ns
from types import SimpleNamespace

QUERY = "query"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.query = -1  # number of the current query
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` counts work."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.query)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def install(self, api: SimpleNamespace) -> SimpleNamespace:
        """Patch the package's internal layer calls; return a traced copy of ``api``."""
        mods = api.modules
        for attr in ("group_from_spec", "ring_from_spec", "ideal_from_spec"):
            self._patch(mods.algebra, attr, "algebra")
        self._patch(mods.reduced, "steiner_distance", "steiner.h")
        self._patch(mods.reduced, "distance_matrix", "graph")
        self._patch(mods.steiner, "distance_matrix", "graph")

        def count_graph(args, g):
            self.counts["vertices"] += g.n
            self.counts["edges"] += g.edge_count()

        def count_classes(args, d):
            self.counts["classes"] += d.k
            self.counts["class_vertices"] += d.source.n

        def count_profiles(args, result):
            self.counts["profiles"] += result[1].num_profiles
            self.counts["support_hits"] += result[1].dh_cache_hits

        def count_subsets(args, value):
            self.counts["subsets"] += comb(args[0].n, args[1])

        with_stats = self.wrap("reduced", mods.reduced.steiner_wiener_reduced_with_stats, count_profiles)
        return SimpleNamespace(**{
            **vars(api),
            "family_graph": self.wrap("generators", api.family_graph, count_graph),
            "twin_partition": self.wrap("twins", api.twin_partition, count_classes),
            "steiner_wiener_reduced": lambda d, m: with_stats(d, m)[0],
            "steiner_wiener_naive": self.wrap("steiner.naive", api.steiner_wiener_naive, count_subsets),
        })

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def run_query(self, fn, *args):
        """Run one query under a root span with the next query number."""
        self.query += 1
        return self.wrap(QUERY, fn)(*args)

    def self_times(self) -> tuple[dict[str, int], dict[str, int], Counter]:
        """Total and self nanoseconds per span name, and calls per name."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[idx]
            calls[name] += 1
        return total, own, calls

    def layer_metrics(
        self, passes: int, time_scale: float, overhead_frac: float
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass over the pool, as ``name -> (value, unit)``.

        Span times are multiplied by ``time_scale``, the traced queries'
        reference-speed time over their wall time.
        """
        total, own, calls = self.self_times()
        c = self.counts

        def ms(ns: int) -> float:
            return ns * time_scale / 1e6 / passes

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "algebra.build_ms": (ms(own["algebra"]), "ms"),
            "algebra.calls": (calls["algebra"] / passes, "count"),
            "generators.build_ms": (ms(own["generators"]), "ms"),
            "generators.vertices": (c["vertices"] / passes, "count"),
            "generators.edges": (c["edges"] / passes, "count"),
            "twins.partition_ms": (ms(own["twins"]), "ms"),
            "twins.class_ratio": (ratio(c["classes"], c["class_vertices"]), "ratio"),
            "reduced.index_ms": (ms(own["reduced"]), "ms"),
            "reduced.profiles": (c["profiles"] / passes, "count"),
            "reduced.support_hit_ratio": (ratio(c["support_hits"], c["profiles"]), "ratio"),
            "steiner.h_queries": (calls["steiner.h"] / passes, "count"),
            "steiner.h_ms": (ms(own["steiner.h"]), "ms"),
            "steiner.naive_ms": (ms(own["steiner.naive"]), "ms"),
            "steiner.subsets": (c["subsets"] / passes, "count"),
            "steiner.us_per_subset": (ratio(own["steiner.naive"] * time_scale / 1e3, c["subsets"]), "us"),
            "graph.apsp_ms": (ms(own["graph"]), "ms"),
            "graph.apsp_calls": (calls["graph"] / passes, "count"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
            "trace.unattributed_frac": (ratio(own[QUERY], total[QUERY]), "ratio"),
        }

    def write(self, path) -> None:
        """Write every span as gzipped CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,query\n")
            for span in self.spans:
                fh.write("%s,%d,%d,%d,%d\n" % span)
