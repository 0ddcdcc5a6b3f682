"""Immutable simple undirected graphs over dense 0-based vertex indices.

The :class:`Graph` value is the substrate for everything else in the package:
twin decomposition, Steiner distances, and the algebraic graph generators all
consume and produce it. Vertices are integers ``0..n-1``, each with one
Python-int neighbour mask, the package's only adjacency format; semantic names
(group elements, ring elements, ideals) ride along as per-vertex string
labels so the algorithms stay label-agnostic.

One bitset walk, :func:`induces_connected`, tells whether a vertex mask
induces a connected subgraph, for the Steiner oracle and for
:func:`is_connected`, which every index route checks before it builds a
distance matrix or a class-set array. :func:`generalized_composition`
builds ``base[factors]``, the form in which a twin decomposition rebuilds
its graph.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

from .errors import ArityMismatch, ParseError, SelfLoopRejected, VertexOutOfRange

GRAPH_FORMATS = ("edgelist", "json", "dot")


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(v) for v in range(n))


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: one neighbour bitmask per vertex.

    Bit ``w`` of ``masks[v]`` is set iff ``v ~ w``; the masks are symmetric,
    loop-free and hold no bit at or above ``n``. Construct through
    :func:`new_graph` (or the parsers/generators), which validate indices and
    deduplicate edges. Instances are immutable and hashable; equality is
    structural over ``(n, edges, labels)``.
    """

    masks: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.masks)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of ``v``; never contains ``v`` itself."""
        self._check_vertex(v)
        return frozenset(_bits(self.masks[v]))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as ``(u, v)`` with ``u < v``, sorted lexicographically."""
        return tuple(
            (u, u + 1 + w) for u, mask in enumerate(self.masks) for w in _bits(mask >> u + 1)
        )

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.n})")


def new_graph(
    n: int,
    edges: Iterable[tuple[int, int]] = (),
    labels: Sequence[str] | None = None,
) -> Graph:
    """Build a graph on ``n`` vertices from an edge list.

    Duplicate edges (in either orientation) collapse to one. Raises
    :class:`VertexOutOfRange` for endpoints outside ``[0, n)`` and
    :class:`SelfLoopRejected` for ``(v, v)`` pairs.
    """
    if n < 0:
        raise VertexOutOfRange(f"vertex count must be non-negative, got {n}")
    masks = [0] * n
    for u, v in edges:
        if not 0 <= u < n:
            raise VertexOutOfRange(f"edge endpoint {u} not in [0, {n})")
        if not 0 <= v < n:
            raise VertexOutOfRange(f"edge endpoint {v} not in [0, {n})")
        if u == v:
            raise SelfLoopRejected(f"self-loop at vertex {u} rejected")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if labels is None:
        labels = _default_labels(n)
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise VertexOutOfRange(f"expected {n} labels, got {len(labels)}")
    return Graph(tuple(masks), labels)


def induces_connected(g: Graph, mask: int) -> bool:
    """True iff the vertices of ``mask`` induce a connected subgraph of ``g``.

    The empty mask and a single vertex are connected. A bitset breadth-first
    search from the lowest vertex of ``mask``: each level ORs the neighbour
    masks of its frontier and keeps the vertices of ``mask`` not yet seen as
    the next frontier.
    """
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= g.masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def is_connected(g: Graph) -> bool:
    """True iff ``g`` has at most one connected component.

    :func:`induces_connected` over every vertex; the empty graph is connected.
    """
    return induces_connected(g, (1 << g.n) - 1)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, re-indexed ``0..k-1`` in sorted order.

    New vertex ``i`` is the ``i``-th least of ``vertices``; labels are
    inherited from ``g``.
    """
    keep = sorted(set(vertices))
    for v in keep:
        g._check_vertex(v)
    index_of = {old: new for new, old in enumerate(keep)}
    inside = sum(1 << v for v in keep)
    masks = tuple(
        sum(1 << index_of[w] for w in _bits(g.masks[u] & inside)) for u in keep
    )
    labels = tuple(g.labels[v] for v in keep)
    return Graph(masks, labels)


def generalized_composition(base: Graph, factors: Sequence[Graph]) -> Graph:
    """Evaluate ``base[factors[0], ..., factors[k-1]]``, one factor per base vertex.

    Vertex ``i`` of the base is replaced by the whole factor ``factors[i]``.
    The vertex set is the disjoint union of the factor vertex sets, blocks
    laid out in base-vertex order. Two vertices are adjacent iff they sit in
    the same block and are adjacent in its factor, or they sit in different
    blocks whose base vertices are adjacent. Raises :class:`ArityMismatch`
    unless there are exactly ``base.n`` factors.
    """
    if len(factors) != base.n:
        raise ArityMismatch(f"base has {base.n} vertices but {len(factors)} factors given")
    offsets = list(accumulate((f.n for f in factors), initial=0))
    blocks = [((1 << f.n) - 1) << off for f, off in zip(factors, offsets)]
    masks: list[int] = []
    for i, f in enumerate(factors):
        joined = 0
        for j in _bits(base.masks[i]):
            joined |= blocks[j]
        masks.extend(mask << offsets[i] | joined for mask in f.masks)
    return Graph(tuple(masks), _default_labels(offsets[-1]))


# --- text formats -----------------------------------------------------------
#
# edge-list: first line is the vertex count; each later non-empty line holds
#   two space-separated 0-based indices; '#' starts a comment line.
# json: {"n": int, "edges": [[a, b], ...], "labels": [str, ...]}.
# dot: render-only undirected "graph G { ... }".


def parse_graph(text: str | bytes, fmt: str = "edgelist") -> Graph:
    """Parse a graph from its textual form. Formats: ``edgelist``, ``json``.

    Bytes must be UTF-8; any other input is a :class:`ParseError`.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "json":
        return _parse_json(text)
    raise ParseError(f"unknown parse format {fmt!r} (expected 'edgelist' or 'json')")


def _field_error(message: str, lineno: int, raw: str, i: int) -> ParseError:
    """A :class:`ParseError` at the 1-based column of field ``i`` of the raw line."""
    field = next(islice(re.finditer(r"\S+", raw), i, None))
    return ParseError(message, lineno, field.start() + 1)


def _field_int(fields: list[str], i: int, what: str, lineno: int, raw: str) -> int:
    """Field ``i`` as an integer; a :class:`ParseError` at its column if it is none."""
    try:
        return int(fields[i])
    except ValueError:
        raise _field_error(f"bad {what} {fields[i]!r}", lineno, raw, i) from None


def _parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format; an error names its field's 1-based column in the raw line."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Cutting the comment off leaves every field where it was in ``raw``.
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if n is None:
            if len(fields) != 1:
                raise _field_error("expected a single vertex count", lineno, raw, 1)
            n = _field_int(fields, 0, "vertex count", lineno, raw)
            if n < 0:
                raise _field_error("vertex count must be non-negative", lineno, raw, 0)
            continue
        if len(fields) != 2:
            # At the first extra field, or at the lone one.
            raise _field_error("expected two vertex indices", lineno, raw, min(2, len(fields) - 1))
        u = _field_int(fields, 0, "vertex index", lineno, raw)
        v = _field_int(fields, 1, "vertex index", lineno, raw)
        if not 0 <= u < n:
            raise _field_error(f"vertex {u} out of range [0, {n})", lineno, raw, 0)
        if not 0 <= v < n:
            raise _field_error(f"vertex {v} out of range [0, {n})", lineno, raw, 1)
        if u == v:
            raise _field_error(f"self-loop at vertex {u}", lineno, raw, 1)
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: missing vertex count line")
    return new_graph(n, edges)


def _is_json_int(x: object) -> bool:
    # JSON true and false load as bool, which Python counts as an int.
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if not _is_json_int(obj.get("n")):
        raise ParseError('missing or non-integer "n" field')
    n = obj["n"]
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be an array of pairs')
    edges = []
    for i, pair in enumerate(raw_edges):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_json_int(x) for x in pair)
        ):
            raise ParseError(f"edge #{i} is not a pair of integers")
        edges.append((pair[0], pair[1]))
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ParseError('"labels" must be an array of strings')
        if len(labels) != n:
            raise ParseError(f'"labels" has {len(labels)} entries, expected {n}')
    try:
        return new_graph(n, edges, labels)
    except (VertexOutOfRange, SelfLoopRejected) as exc:
        raise ParseError(str(exc)) from None


def render_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Deterministic textual form. Formats: ``edgelist``, ``json``, ``dot``.

    Edges always appear with the smaller endpoint first, in lexicographic
    order, so rendering is stable and ``parse_graph`` round-trips exactly.
    """
    if fmt == "edgelist":
        lines = [str(g.n)]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {"n": g.n, "edges": [list(e) for e in g.edges()], "labels": list(g.labels)}
        return json.dumps(obj, separators=(", ", ": ")) + "\n"
    if fmt == "dot":
        lines = ["graph G {"]
        for v, label in enumerate(g.labels):
            # Escaped so every label stays one quoted DOT string.
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        lines.extend(f"  {u} -- {v};" for u, v in g.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown render format {fmt!r} (expected 'edgelist', 'json' or 'dot')")
