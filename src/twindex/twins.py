"""Twin classes, the reduced graph, and the composition reconstruction.

Two vertices are twins when ``N(u) \\ {v} == N(v) \\ {u}``: false twins share
open neighborhoods, true twins share closed ones. The relation is an
equivalence, and no vertex has twins of both sorts, so each class is one
neighborhood bucket: an edgeless class of false twins or a clique of true
twins. :func:`twin_partition` reads the classes and their kinds off the two
bucketings in one pass, and the whole graph is recovered as a generalized
composition of the class subgraphs over the reduced graph H, induced by
each class's least member. The index formulas read only the class sizes and
kinds and H. The pairwise test :func:`are_twins` compares two neighbour
masks, each with the other vertex's bit cleared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ReconstructionMismatch
from .graph import Graph, generalized_composition, induced_subgraph, new_graph


class ClassKind(enum.Enum):
    COMPLETE = "complete"
    EMPTY = "empty"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class TwinDecomposition:
    """Partition of a graph into twin classes plus the reduced graph.

    ``classes`` are sorted tuples of vertex indices, ordered by their minimum
    member. ``reduced`` is the subgraph induced by the class minima
    ``classes[i][0]``, re-indexed ``0..k-1`` so class ``i`` corresponds to
    reduced vertex ``i``. ``class_index[v]`` is the index of the class
    holding vertex ``v``.
    """

    source: Graph
    classes: tuple[tuple[int, ...], ...]
    kinds: tuple[ClassKind, ...]
    reduced: Graph
    class_index: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def are_twins(g: Graph, u: int, v: int) -> bool:
    """True iff ``N(u) \\ {v} == N(v) \\ {u}`` (every vertex twins itself)."""
    g._check_vertex(u)
    g._check_vertex(v)
    return g.masks[u] & ~(1 << v) == g.masks[v] & ~(1 << u)


def twin_partition(g: Graph) -> TwinDecomposition:
    """Compute the twin classes of ``g`` and its reduced graph in one pass.

    Every vertex is bucketed by its open neighborhood ``N(v)`` and by its
    closed neighborhood ``N[v]``, the neighbour masks ``masks[v]`` and
    ``masks[v] | 1 << v``. Walking the vertices in ascending order, an
    unplaced vertex's class is its open bucket, of kind ``EMPTY``, when that
    bucket holds another vertex; otherwise it is its closed bucket, of kind
    ``COMPLETE``, or ``SINGLETON`` when that bucket holds the vertex alone.
    Classes therefore come out ordered by their least member.

    The two bucketings never need merging: no vertex has both a false twin
    and a true twin. If ``N(u) = N(v)`` and ``N[w] = N[v]`` with u, w != v,
    then ``w in N(v) = N(u)``, so ``u in N[w] = N[v]`` and u is adjacent to
    v, which is impossible when ``N(u) = N(v)``. Open buckets are independent
    sets and closed buckets are cliques by definition, so each kind holds by
    construction. The pairwise predicate :func:`are_twins` serves as the
    oracle in tests. The buckets are dropped before H is built, and a
    twin-free graph is its own H rather than a copy.
    """
    open_buckets: dict[int, list[int]] = {}
    closed_buckets: dict[int, list[int]] = {}
    for v, mask in enumerate(g.masks):
        open_buckets.setdefault(mask, []).append(v)
        closed_buckets.setdefault(mask | 1 << v, []).append(v)

    class_index = [-1] * g.n
    classes: list[tuple[int, ...]] = []
    kinds: list[ClassKind] = []
    for v, mask in enumerate(g.masks):
        if class_index[v] >= 0:
            continue
        cls = open_buckets[mask]
        if len(cls) > 1:
            kinds.append(ClassKind.EMPTY)
        else:
            cls = closed_buckets[mask | 1 << v]
            kinds.append(ClassKind.COMPLETE if len(cls) > 1 else ClassKind.SINGLETON)
        for u in cls:
            class_index[u] = len(classes)
        classes.append(tuple(cls))
    del open_buckets, closed_buckets
    reduced = g if len(classes) == g.n else induced_subgraph(g, (c[0] for c in classes))
    return TwinDecomposition(g, tuple(classes), tuple(kinds), reduced, tuple(class_index))


def recompose(d: TwinDecomposition) -> Graph:
    """Rebuild the source graph as ``reduced[class subgraphs]``.

    The composition lays blocks out in class order; the result is relabeled
    back to the source indexing and must equal ``d.source`` exactly. A
    mismatch raises :class:`ReconstructionMismatch` and signals a bug.
    """
    factors = [induced_subgraph(d.source, cls) for cls in d.classes]
    composed = generalized_composition(d.reduced, factors)
    perm = [0] * d.source.n
    pos = 0
    for cls in d.classes:
        for v in cls:
            perm[pos] = v
            pos += 1
    edges = [(perm[u], perm[v]) for u, v in composed.edges()]
    rebuilt = new_graph(d.source.n, edges, d.source.labels)
    if rebuilt != d.source:
        raise ReconstructionMismatch("recomposition does not match the source graph")
    return rebuilt
